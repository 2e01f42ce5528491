"""Config-driven experiment runner and file emitters.

An experiment classifies the scheme (power-law only), evaluates the three
limit conditions, estimates the Lindeberg index and its upper bound, runs
the replication study, and renders CSV/SVG/JSON outputs.  Outputs are
written atomically (temp file then rename) and never overwritten without an
explicit force flag.  Every float of a JSON report is written at full
precision and ``json.loads`` reads it back bit for bit; a rerun of the same
config produces byte-identical CSV and JSON.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import tempfile
import time
from array import array
from dataclasses import dataclass, field, fields, replace

from . import __version__
from .analytic import (
    DEFAULT_EPS_GRID,
    DEFAULT_N_GRID,
    Classification,
    classify_power_law,
    grid_walk,
    lindeberg_index_estimate,
    lindeberg_upper_bound,
    condition_a,
    condition_b,
    condition_c,
    validate_eps_grid,
    validate_geometric_grid,
)
from .model import ContaminationScheme, SchemeKind, base_distribution
from .montecarlo import QQPoint, default_t_grid, qq_points, replicate

# Fixed default seed so fresh runs of the shipped configs reproduce each
# other exactly.
DEFAULT_SEED = 2718281828

FORMATS = ("csv", "svg", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that identifies an experiment.

    Execution details (output directory, formats, worker count, overwrite
    flag, tabular source path) do not affect any computed number and are
    excluded from equality and from the report echo; the tabular path is
    recorded as the scheme's ``source`` instead.
    """

    scheme: ContaminationScheme
    dist: str = "normal"
    mu: float = 0.0
    n: int = 1000
    reps: int = 5000
    seed: int = DEFAULT_SEED
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    out: str = field(default="out", compare=False)
    formats: tuple[str, ...] = field(default=FORMATS, compare=False)
    workers: int = field(default=1, compare=False)
    force: bool = field(default=False, compare=False)
    tabular: str | None = field(default=None, compare=False)

    def validated(self) -> "ExperimentConfig":
        base_distribution(self.dist)
        n_grid = validate_geometric_grid(self.n_grid)
        eps_grid = validate_eps_grid(self.eps_grid)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise ValueError(f"unknown output formats {bad}; choose from {FORMATS}")
        length = self.scheme.length
        needed = max(self.n, n_grid[-1])
        if length is not None and length < needed:
            raise ValueError(
                f"tabular scheme holds {length} entries but the run needs {needed}"
            )
        sc = self.scheme
        if sc.kind is SchemeKind.POWER_LAW:
            try:  # sigma_k^2 = s2*k**b, and k*(1 + p*s2*k**max(b - a, 0)) >= s_k^2
                top = max(sc.s2 * needed ** sc.b,
                          needed * (1.0 + sc.p * sc.s2 * needed ** max(sc.b - sc.a, 0.0)))
            except OverflowError:  # a float power overflows by raising
                top = math.inf
            if top == math.inf:
                raise ValueError(f"power law s2={sc.s2}, b={sc.b} overflows at k={needed}")
        return replace(self, n_grid=n_grid, eps_grid=eps_grid,
                       formats=tuple(self.formats))


# config fields echoed in the report next to the scheme, in declaration order
_ECHOED = tuple(f.name for f in fields(ExperimentConfig)
                if f.compare and f.name != "scheme")


@dataclass(frozen=True)
class ExperimentReport:
    """Full result of one experiment.

    In the JSON form (``to_dict``, ``emit_json``) every float is written at
    full precision, and ``json.loads`` reads it back bit for bit.

    ``stage_seconds`` is volatile timing information: wall-clock seconds per
    pipeline stage, kept on the in-memory report for logging but excluded
    from serialization and from equality, so identical configs produce
    identical persisted reports.
    """

    config: ExperimentConfig
    classification: Classification | None
    conditions: dict
    lindeberg_index_estimate: float
    lindeberg_upper_bound: float
    ks_statistic: float
    s_n: float
    qq: tuple[QQPoint, ...]
    assumptions: tuple[str, ...]
    stage_seconds: dict = field(default_factory=dict, compare=False)

    def annotation_index(self) -> float:
        """Index value to annotate figures with: closed form when known."""
        if self.classification is not None and self.classification.lindeberg_index is not None:
            return self.classification.lindeberg_index
        return self.lindeberg_index_estimate

    def to_dict(self, table=memoryview.tolist) -> dict:
        """JSON-ready values; ``table`` makes the echo of a tabular column."""
        cfg = self.config
        scheme: dict = {"kind": cfg.scheme.kind.value}
        if cfg.scheme.kind is SchemeKind.POWER_LAW:
            scheme.update(p=cfg.scheme.p, a=cfg.scheme.a, s2=cfg.scheme.s2, b=cfg.scheme.b)
        elif cfg.scheme.kind is SchemeKind.TABULAR:
            scheme.update(p_k=table(memoryview(cfg.scheme.p_table).cast("d")),
                          sigma2_k=table(memoryview(cfg.scheme.sigma2_table).cast("d")))
            if cfg.tabular is not None:
                scheme["source"] = cfg.tabular
        echo = {"scheme": scheme}
        for name in _ECHOED:
            value = getattr(cfg, name)
            echo[name] = list(value) if isinstance(value, tuple) else value
        classification = None
        if self.classification is not None:
            classification = {
                "case": self.classification.case.value,
                "lindeberg_index": self.classification.lindeberg_index,
                "L": self.classification.L,
            }
        return {
            "tool_version": __version__,
            "config": echo,
            "classification": classification,
            "conditions": {
                name: {
                    "trend": est.trend.value,
                    "last": est.last,
                    "estimate": est.estimate,
                    "values": [[n, v] for n, v in est.values],
                }
                for name, est in self.conditions.items()
            },
            "lindeberg_index_estimate": self.lindeberg_index_estimate,
            "lindeberg_upper_bound": self.lindeberg_upper_bound,
            "ks_statistic": self.ks_statistic,
            "s_n": self.s_n,
            "qq_points": [[pt.t, pt.theoretical, pt.empirical] for pt in self.qq],
            "assumptions": list(self.assumptions),
        }


def utf8_lines(path: str):
    """The lines of a UTF-8 text file, read lazily with their endings as written and
    a leading BOM dropped; a decode error becomes a ValueError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield from handle
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_tabular_scheme(path: str) -> ContaminationScheme:
    """Read a two-column CSV ``p_k,sigma2_k`` (with header) into a scheme, peaking
    near 25 B a row; errors name ``file:line``, or the file and first bad index."""
    reader = csv.reader(utf8_lines(path))
    p_col, s_col = array("d"), array("d")
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["p_k", "sigma2_k"]:
            raise ValueError(f"{path}: expected header 'p_k,sigma2_k', got {header!r}")
        for row in reader:
            if not "".join(row).strip():  # no cells, or blank ones only
                continue
            try:
                p_col.append(float(row[0]))
                s_col.append(float(row[1]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}:{reader.line_num}: malformed row {row!r}") from None
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    p_col = p_col.tobytes()  # rebinding frees each array before the next copy is made
    s_col = s_col.tobytes()
    try:
        return ContaminationScheme.tabular(p_col, s_col)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full pipeline for one config and write any requested outputs.

    Output paths are checked before any computation so that a collision or
    an unwritable directory fails fast; each file is then written atomically.
    """
    config = config.validated()
    targets = _output_targets(config)
    _check_targets(config, targets)

    stages, clock = {}, [time.perf_counter()]

    def timed(stage: str, value=None):
        # stages run back to back, so all but "emit" sum to the wall clock
        clock.append(time.perf_counter())
        stages[stage] = clock[-1] - clock[-2]
        return value

    dist = base_distribution(config.dist)
    classification = None
    if config.scheme.kind is SchemeKind.POWER_LAW:
        classification = classify_power_law(config.scheme.p, config.scheme.a,
                                            config.scheme.s2, config.scheme.b)

    timed("walk", grid_walk(config.scheme, config.n_grid))  # the diagnostics read its memo
    conditions = timed("conditions", {
        name: condition(config.scheme, config.n_grid) for name, condition
        in (("A", condition_a), ("B", condition_b), ("C", condition_c))})
    index_estimate = timed("index estimate", lindeberg_index_estimate(
        config.scheme, dist, config.n_grid, config.eps_grid))
    index_bound = timed("bound", lindeberg_upper_bound(config.scheme, config.n_grid))

    result = timed("replicate", replicate(config.reps, config.n, config.scheme, dist,
                                          config.mu, config.seed, workers=config.workers))
    qq = timed("qq", qq_points(result.samples, default_t_grid()))

    assumptions = (
        f"base distribution '{config.dist}' is a modeling choice; "
        "the study protocol does not prescribe one",
    )
    report = ExperimentReport(
        config=config,
        classification=classification,
        conditions=conditions,
        lindeberg_index_estimate=index_estimate,
        lindeberg_upper_bound=index_bound,
        ks_statistic=result.ks_statistic,
        s_n=result.s_n,
        qq=qq,
        assumptions=assumptions,
        stage_seconds=stages,
    )

    for fmt, path in targets.items():
        _EMITTERS[fmt](report, path, force=config.force)
    timed("emit")
    return report


def _output_targets(config: ExperimentConfig) -> dict:
    names = {"csv": "qq.csv", "svg": "qq.svg", "json": "report.json"}
    return {fmt: os.path.join(config.out, names[fmt]) for fmt in config.formats}


def _check_targets(config: ExperimentConfig, targets: dict) -> None:
    if not targets:
        return
    os.makedirs(config.out, exist_ok=True)
    if not config.force:
        existing = [p for p in targets.values() if os.path.exists(p)]
        if existing:
            raise FileExistsError(
                f"refusing to overwrite {existing[0]!r}; pass force to allow"
            )


def _write_atomic(path: str, chunks, force: bool) -> None:
    if not force and os.path.exists(path):
        raise FileExistsError(f"refusing to overwrite {path!r}; pass force to allow")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def emit_csv(report: ExperimentReport, path: str, force: bool = False) -> None:
    """QQ points as ``t,theoretical,empirical`` rows at full precision."""
    lines = ["t,theoretical,empirical"]
    lines += [f"{pt.t!r},{pt.theoretical!r},{pt.empirical!r}" for pt in report.qq]
    _write_atomic(path, (line + "\n" for line in lines), force)


class _EchoedColumn(list):
    """A float64 column that the Python JSON encoder reads as a list, ``SLICE``
    Python floats at a time; the encoder writes every separator itself."""

    SLICE = 4096

    def __init__(self, values: memoryview):
        self.values = values  # the list itself stays empty

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        for lo in range(0, len(self.values), self.SLICE):
            yield from self.values[lo:lo + self.SLICE].tolist()


def emit_json(report: ExperimentReport, path: str, force: bool = False) -> None:
    """The full report as JSON; ``json.loads`` reads every float back bit for bit."""
    # json.dumps with an indent runs this same Python encoder, so no byte moves
    encoded = json.JSONEncoder(indent=2).iterencode(report.to_dict(table=_EchoedColumn))
    _write_atomic(path, itertools.chain(encoded, ("\n",)), force)


def emit_svg(report: ExperimentReport, path: str, force: bool = False) -> None:
    """Hand-emitted QQ scatter: points, the line y = x, an index annotation."""
    size, margin = 640.0, 60.0
    span = size - 2.0 * margin
    coords = [pt.theoretical for pt in report.qq] + [pt.empirical for pt in report.qq]
    lo = min(-4.0, math.floor(min(coords))) if coords else -4.0
    hi = max(4.0, math.ceil(max(coords))) if coords else 4.0

    def to_x(v: float) -> float:
        return margin + (v - lo) / (hi - lo) * span

    def to_y(v: float) -> float:
        return size - margin - (v - lo) / (hi - lo) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:g} {size:g}">',
        f'<rect x="0" y="0" width="{size:g}" height="{size:g}" fill="white"/>',
        (f'<line x1="{to_x(lo):.2f}" y1="{to_y(lo):.2f}" '
         f'x2="{to_x(hi):.2f}" y2="{to_y(hi):.2f}" '
         'stroke="black" stroke-width="1"/>'),
    ]
    for pt in report.qq:
        parts.append(
            f'<circle cx="{to_x(pt.theoretical):.2f}" cy="{to_y(pt.empirical):.2f}" '
            'r="2.5" fill="steelblue" fill-opacity="0.7"/>'
        )
    parts.append(
        f'<text x="{margin:.2f}" y="{margin * 0.6:.2f}" font-family="sans-serif" '
        f'font-size="18">Lindeberg index: {report.annotation_index():.4f}</text>'
    )
    parts.append("</svg>")
    _write_atomic(path, (part + "\n" for part in parts), force)


_EMITTERS = {"csv": emit_csv, "svg": emit_svg, "json": emit_json}
