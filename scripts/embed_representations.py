#!/usr/bin/env python3
"""Representation analysis: t-SNE embeddings + cluster distances for the raw
tensors, the CNN inner layer, and the primary-capsule layer of one dataset.

Usage: python scripts/embed_representations.py [graphcaps embed flags]
Fixes MUTAG, the small preset, 1000 t-SNE iterations and results/embeddings;
any `graphcaps embed` flag that follows wins, e.g. --dataset PROTEINS
--perplexity 200 (the reference choices are perplexity 10 for MUTAG, 200 for
PROTEINS).
"""

import sys

from graphcaps.cli import main as cli_main


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for source in ("raw", "cnn", "caps"):
        rc = cli_main([
            "embed", "--dataset", "MUTAG", "--source", source, "--preset", "small",
            "--iters", "1000", "--out-root", "results/embeddings", *argv,
        ])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
