#!/usr/bin/env python3
"""Hyper-parameter grid search on MUTAG: epochs x learning rate x decay
(36 cells at the default grid), 10-fold CV per cell.

Usage: python scripts/grid_search_mutag.py [graphcaps grid flags]
Fixes MUTAG, BC + capsules, the small preset and results/grid; any
`graphcaps grid` flag that follows wins, e.g. --preset paper --seed 7.
"""

import sys

from graphcaps.cli import main as cli_main


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return cli_main([
        "grid", "--dataset", "MUTAG", "--labelling", "bc", "--model", "capsules",
        "--preset", "small", "--out-root", "results/grid", *argv,
    ])


if __name__ == "__main__":
    sys.exit(main())
