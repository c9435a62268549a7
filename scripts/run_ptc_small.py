#!/usr/bin/env python3
"""PTC reproduction at reduced scale: BC + capsules over the four animal
sub-datasets (MM/FM/MR/FR), small preset, averaged per convention.

Usage: python scripts/run_ptc_small.py [graphcaps run flags]
Fixes PTC, BC + capsules, the small preset and results/ptc_small; any
`graphcaps run` flag that follows wins, e.g. --data-root DIR.
Expects PTC_MM, PTC_FM, PTC_MR, PTC_FR under the data root.
"""

import sys

from graphcaps.cli import main as cli_main


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return cli_main([
        "run", "--dataset", "PTC", "--labelling", "bc", "--model", "capsules",
        "--preset", "small", "--out-root", "results/ptc_small", *argv,
    ])


if __name__ == "__main__":
    sys.exit(main())
