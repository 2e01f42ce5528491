"""Command-line experiment runner.

Settings come from three layers with increasing precedence: built-in
defaults, a flat key-value config file (``--config``), and command-line
flags.  ``SETTINGS`` is the one schema for all of them: each key is both a
config-file key and a flag, and its string value from either layer goes
through the same converter.  Keys other than the scheme's are the names of
``ExperimentConfig`` fields.  Exit codes: 0 success, 2 validation error,
3 I/O error, 4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

# After each threaded call, and once when numpy loads, OpenBLAS keeps an idle
# helper thread spinning for about 0.1 s, which burns a second core for
# nothing.  A timeout of 2**4 cycles, the shortest OpenBLAS accepts, puts it
# to sleep at once; the thread count, and so every bit of the dot products,
# stays the same.  It only takes effect before numpy loads, and only the CLI
# sets it: a library import does not own its process.  A value already in
# the environment wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .experiment import (  # noqa: E402
    FORMATS,
    ExperimentConfig,
    load_tabular_scheme,
    run_experiment,
    utf8_lines,
)
from .model import _DISTRIBUTIONS, ContaminationScheme, SchemeKind  # noqa: E402
from .montecarlo import _usable_cpus  # noqa: E402

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _choice(options: tuple[str, ...]):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"choose from {', '.join(options)}")
        return text
    return convert


def _list(convert):
    return lambda text: tuple(convert(tok) for tok in text.split(",") if tok.strip())


_SCHEMES = tuple(kind.value for kind in SchemeKind)
_DISTS = tuple(_DISTRIBUTIONS)

# setting key -> (converter from its string value, help text)
SETTINGS = {
    "scheme": (_choice(_SCHEMES), "contamination scheme: " + ", ".join(_SCHEMES)),
    "p": (float, "power-law mixture weight, in (0,1)"),
    "a": (float, "power-law weight decay exponent, > 0"),
    "s2": (float, "power-law inflation factor, > 1"),
    "b": (float, "power-law inflation growth exponent, > 0"),
    "tabular": (str, "two-column CSV 'p_k,sigma2_k' for scheme tabular"),
    "dist": (_choice(_DISTS), "base distribution: " + ", ".join(_DISTS)),
    "mu": (float, "location of the observations"),
    "n": (int, "observations per replicate"),
    "reps": (int, "number of replicates"),
    "seed": (int, "master seed, an unsigned 64-bit integer"),
    "workers": (int, "parallel workers for replication (never changes results)"),
    "out": (str, "output directory"),
    "formats": (_list(str.strip), "comma-separated subset of " + ",".join(FORMATS)),
    "n_grid": (_list(int), "comma-separated geometric grid of sample sizes"),
    "eps_grid": (_list(float), "comma-separated logarithmic epsilon grid"),
    "force": (_parse_bool, "allow overwriting existing output files"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contamclt",
        description=(
            "Classify a contamination scheme, compute its Lindeberg-index "
            "diagnostics, replicate the standardized sample mean, and emit "
            "QQ outputs."
        ),
    )
    parser.add_argument("--config", metavar="FILE",
                        help="flat key-value config file; flags override it")
    for key, (_, help_text) in SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if key == "force":
            parser.add_argument(flag, action="store_const", const="true", help=help_text)
        else:
            parser.add_argument(flag, dest=key, help=help_text)
    return parser


def read_config_file(path: str) -> dict:
    """Parse ``key = value`` lines, each key once; '#' starts a comment."""
    settings: dict = {}
    for lineno, raw in enumerate(utf8_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SETTINGS or not value:
            raise ValueError(f"{path}:{lineno}: unknown or malformed setting {raw.strip()!r}")
        if key in settings:
            raise ValueError(f"{path}:{lineno}: setting {key!r} given twice")
        settings[key] = value
    return settings


def _convert(key: str, text: str):
    try:
        return SETTINGS[key][0](text)
    except ValueError as exc:
        raise ValueError(f"setting {key}={text!r} is invalid: {exc}") from None


def config_from_settings(settings: dict) -> ExperimentConfig:
    """An unvalidated config from string settings keyed as in ``SETTINGS``."""
    values = {key: _convert(key, text) for key, text in settings.items()}
    kind = SchemeKind(values.pop("scheme", SchemeKind.POWER_LAW.value))
    power = {key: values.pop(key) for key in ("p", "a", "s2", "b") if key in values}
    if kind is SchemeKind.TABULAR:
        if not values.get("tabular"):
            raise ValueError("scheme 'tabular' needs a tabular CSV path")
        scheme = load_tabular_scheme(values["tabular"])
    elif kind is SchemeKind.UNCONTAMINATED:
        scheme = ContaminationScheme.uncontaminated()
    else:
        missing = [key for key in ("p", "a", "s2", "b") if key not in power]
        if missing:
            raise ValueError(f"power-law scheme needs parameters {missing}")
        scheme = ContaminationScheme.power_law(**power)
    values.setdefault("workers", _usable_cpus())
    return ExperimentConfig(scheme=scheme, **values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = read_config_file(args.config) if args.config else {}
        settings.update((key, getattr(args, key)) for key in SETTINGS
                        if getattr(args, key) is not None)
        report = run_experiment(config_from_settings(settings))
    except (ValueError, MemoryError) as exc:  # numpy's names the size it could not get
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    case = report.classification.case.value if report.classification else "n/a"
    print(f"classification:       {case}")
    print(f"lindeberg index est.: {report.lindeberg_index_estimate:.6f}")
    print(f"lindeberg bound:      {report.lindeberg_upper_bound:.6f}")
    print(f"ks statistic:         {report.ks_statistic:.6f}")
    print(f"s_n:                  {report.s_n:.6f}")
    for trend_name, est in report.conditions.items():
        print(f"condition {trend_name}:          {est.trend.value}")
    if report.config.formats:
        print(f"outputs:              {report.config.out} "
              f"({', '.join(report.config.formats)})")
    stages = report.stage_seconds
    print(f"wall clock:           {sum(stages.values()) - stages.get('emit', 0.0):.2f} s")
    for stage, seconds in stages.items():
        print(f"  {stage + ':':<20}{seconds:.2f} s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
