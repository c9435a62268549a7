#!/usr/bin/env python3
"""Full MUTAG ablation at paper scale: both labellings x both classifiers,
10-fold CV, one combined report.

Usage: python scripts/run_mutag_ablation.py [graphcaps run flags]
Fixes MUTAG, the paper preset and results/mutag_ablation; any `graphcaps run`
flag that follows wins, e.g. --data-root DIR --preset small.
Expects MUTAG in TU flat-file format under the data root.
"""

import argparse
import os
import sys

from graphcaps.cli import main as cli_main
from graphcaps.labelling import LABELLINGS


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the report needs the out-root the runs wrote to
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--out-root", default="results/mutag_ablation")
    out_root = parser.parse_known_args(argv)[0].out_root

    for labelling in LABELLINGS:
        for model in ("capsules", "cnn"):
            rc = cli_main([
                "run", "--dataset", "MUTAG", "--labelling", labelling, "--model", model,
                "--preset", "paper", "--out-root", out_root, *argv,
            ])
            if rc != 0:
                return rc
    run_dirs = [
        os.path.join(out_root, d)
        for d in os.listdir(out_root)
        if os.path.isfile(os.path.join(out_root, d, "result.json"))
    ]
    return cli_main(["report", *sorted(run_dirs), "-o", os.path.join(out_root, "report")])


if __name__ == "__main__":
    sys.exit(main())
