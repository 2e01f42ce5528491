#!/usr/bin/env python3
"""Run all five shipped figure configs through the CLI.

Usage: python scripts/run_figures.py [--force]
Outputs land under out/fig1 ... out/fig5 in the repo root, wherever it is run from.
"""

import pathlib
import sys

from contamclt.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run() -> int:
    force = "--force" in sys.argv[1:]
    for cfg in sorted((ROOT / "configs").glob("fig*.cfg")):
        argv = ["--config", str(cfg), "--out", str(ROOT / "out" / cfg.stem)]
        if force:
            argv.append("--force")
        print(f"== {cfg.name}")
        code = cli_main(argv)
        if code != 0:
            print(f"{cfg.name} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
