#!/usr/bin/env python3
"""Full MUTAG ablation at paper scale: both labellings x both classifiers,
10-fold CV, one combined report.

Usage: python scripts/run_mutag_ablation.py [graphcaps run flags]
Fixes MUTAG, the paper preset and results/mutag_ablation; any `graphcaps run`
flag that follows wins, e.g. --data-root DIR --preset small.
Expects MUTAG in TU flat-file format under the data root.
"""

import os
import sys

from graphcaps.cli import build_parser, run_configs
from graphcaps.cli import main as cli_main
from graphcaps.labelling import LABELLINGS


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the report covers the runs made here (four, times --repeats), not every
    # run under the out-root
    configs = []
    for labelling in LABELLINGS:
        for model in ("capsules", "cnn"):
            run_argv = [
                "run", "--dataset", "MUTAG", "--labelling", labelling, "--model", model,
                "--preset", "paper", "--out-root", "results/mutag_ablation", *argv,
            ]
            rc = cli_main(run_argv)
            if rc != 0:
                return rc
            configs += run_configs(build_parser().parse_args(run_argv))
    return cli_main(["report", *(cfg.run_dir() for cfg in configs),
                     "-o", os.path.join(configs[0].out_root, "report")])


if __name__ == "__main__":
    sys.exit(main())
