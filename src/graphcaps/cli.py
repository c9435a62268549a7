"""graphcaps command line: tensorize, run, grid, embed, report, selftest.

``run`` takes comma lists for ``--labelling`` and ``--model``, e.g. the
paper's ablation ``--labelling bc,canonical --model capsules,cnn``: it loads
each (dataset, labelling) once, runs each labelling, then each model, then each
of ``--repeats`` seeds, and writes one report over exactly those runs to
``<out_root>/report_<10 hex digits of a sha256 over their run ids>`` when it
makes more than one, so no other command's report is replaced.
``tensorize`` takes the same ``--labelling`` list, searches each graph once
even with ``--force``, and ``embed`` takes a comma list for ``--source``,
whose sources share one load of the tensors.  ``grid`` takes one value of
each.

Configuration precedence is CLI flags > config file > the defaults of
:class:`~graphcaps.experiment.ExperimentConfig`, the one place a run setting
has a default.  Each run, PTC parent, grid and embedding directory gets a
manifest of its resolved configuration once its data has loaded, and can be
reproduced from that manifest alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from . import __version__
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    _cell_text,
    dataset_tensors,
    emit_report,
    grid_search,
    load_datasets,
    run_experiment,
    tensorize_cached,
    write_manifest,
)
from .labelling import LABELLINGS
from .models import LOSS_MODES, MODELS
from .selftest import run_selftest


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def config_from_args(args, **values) -> ExperimentConfig:
    """The run the parsed flags describe, with ``values`` in place of theirs.
    Each flag that was given sets the ExperimentConfig field of its name
    (``--lr`` sets ``base_lr``, and ``nauty`` is ``canonical``); every other
    field keeps its default, except that ``$GRAPHCAPS_DATA`` stands in for a
    missing ``--data-root``."""
    given = {("base_lr" if key == "lr" else key): value
             for key, value in {**vars(args), **values}.items() if value is not None}
    if os.environ.get("GRAPHCAPS_DATA"):
        given.setdefault("data_root", os.environ["GRAPHCAPS_DATA"])
    if given.get("labelling") == "nauty":
        given["labelling"] = "canonical"
    return ExperimentConfig(**{f.name: given[f.name]
                               for f in dataclasses.fields(ExperimentConfig) if f.name in given})


def _run_configs(args) -> list:
    """The runs the flags describe, in order: each ``--labelling``, then each
    ``--model``, then ``--repeats`` consecutive seeds from the configured one.
    A list flag that was not given stands for its one default."""
    repeats = getattr(args, "repeats", 1)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    configs = []
    for labelling in args.labelling or [None]:
        for model in getattr(args, "model", None) or [None]:
            base = config_from_args(args, labelling=labelling, model=model)
            configs += [dataclasses.replace(base, seed=base.seed + rep) for rep in range(repeats)]
    return configs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tensorize(args) -> int:
    # --force rebuilds every labelling's grids, but only the first labelling
    # searches; the later ones read the orders file it rewrote
    searched = set()
    for cfg in _run_configs(args):
        for name in cfg.dataset_names():
            tensorize_cached(cfg, name, force=args.force,
                             search=args.force and name not in searched)
            searched.add(name)
    return 0


def cmd_run(args) -> int:
    configs = _run_configs(args)
    # one load per labelling, all before the first run writes; a capsule
    # config, where there is one, also checks the geometry the CNN does not need
    data = {}
    for cfg in sorted(configs, key=lambda cfg: cfg.model != "capsules"):
        if cfg.labelling not in data:
            data[cfg.labelling] = load_datasets(cfg)
    results = []
    for i, cfg in enumerate(configs, start=1):
        result = run_experiment(cfg, data[cfg.labelling])
        results.append(result)
        print(
            f"[run] {result.variant} on {result.dataset}: {_cell_text([result])} "
            f"(train {result.train_seconds_mean:.1f} ± {result.train_seconds_std:.1f} s/fold)"
        )
        print(f"[run] outputs in {cfg.run_dir()}")
        if args.repeats > 1 and i % args.repeats == 0:
            print(f"[run] mean over {args.repeats} repetitions: "
                  f"{_cell_text(results[-args.repeats:])}")
    if len(configs) > 1:  # named after its runs, so no other command's report is replaced
        runs = hashlib.sha256("\n".join(cfg.run_id() for cfg in configs).encode("utf-8"))
        out = emit_report(results, os.path.join(configs[0].out_root,
                                                f"report_{runs.hexdigest()[:10]}"))
        print(f"[run] report over {len(results)} runs -> {out}")
    return 0


def cmd_grid(args) -> int:
    grid = {
        "epochs": [int(v) for v in args.epochs_grid.split(",")],
        "base_lr": [float(v) for v in args.lr_grid.split(",")],
        "lr_decay": [float(v) for v in args.decay_grid.split(",")],
    }
    best_cfg, best_res, cells = grid_search(config_from_args(args), grid)
    print(f"[grid] {len(cells)} cells evaluated")
    print(
        f"[grid] best: epochs={best_cfg.epochs} lr={best_cfg.base_lr} "
        f"decay={best_cfg.lr_decay} -> {100 * best_res.mean_accuracy:.1f} "
        f"± {100 * best_res.std_accuracy:.2f}"
    )
    return 0


def cmd_embed(args) -> int:
    from .analysis import (
        EmbeddingSource,
        _check_iters,
        _check_perplexity,
        cluster_distances,
        extract_embeddings,
        tsne,
        write_distances_csv,
        write_embeddings_csv,
    )
    from .models import train_model

    _check_iters(args.iters)
    runs = []
    for source in map(EmbeddingSource, args.source):
        model = "cnn" if source is EmbeddingSource.CNN_INNER else "capsules"
        runs.append((source, config_from_args(args, model=model)))
    # the tensors depend on no model, so one load serves every source; every
    # check runs before the first source writes
    x, y, w, channels, labels = dataset_tensors(runs[0][1])
    models = [None if source is EmbeddingSource.RAW_TENSOR
              else cfg.build_model(w, channels, labels.num_classes, cfg.seed)
              for source, cfg in runs]
    _check_perplexity(args.perplexity, len(x))

    for (source, cfg), model in zip(runs, models):
        out_dir = cfg.run_dir("embed_", f"_{source.value}")
        write_manifest(out_dir, cfg, source=source.value, perplexity=args.perplexity,
                       iters=args.iters)
        if model is not None:
            print(f"[embed] training {cfg.model} on the full dataset ({cfg.epochs} epochs)")
            train_model(model, x, y, cfg.train_config(cfg.seed))

        points = extract_embeddings(model, x, source)
        print(f"[embed] {points.shape[0]} x {points.shape[1]} features from {source.value}")
        res = tsne(points, perplexity=args.perplexity, iters=args.iters, seed=cfg.seed,
                   jobs=cfg.jobs)
        dist = cluster_distances(res.coords, y)
        write_embeddings_csv(os.path.join(out_dir, "embeddings.csv"), res.coords, y)
        write_distances_csv(os.path.join(out_dir, "distances.csv"), source, dist)
        print(
            f"[embed] KL {res.kl_initial:.4f} -> {res.kl_final:.4f}; "
            f"intra {dist.intra_pooled:.2f}, inter {dist.inter:.2f}; outputs in {out_dir}"
        )
    return 0


def cmd_report(args) -> int:
    results = []
    for run_dir in args.runs:
        path = os.path.join(run_dir, "result.json")
        if not os.path.isfile(path):
            print(f"error: no result.json in {run_dir}", file=sys.stderr)
            return 1
        with open(path) as fh:
            results.append(ExperimentResult(**json.load(fh)))
    out = emit_report(results, args.out)
    print(f"[report] {len(results)} results -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_list(p: argparse.ArgumentParser, flag: str, choices, help: str, required=False,
              **aliases) -> None:
    """Add ``flag``, read as a list from a comma list of distinct ``choices``,
    each alias read as the value it stands for."""
    names = [*choices, *aliases]

    def parse(text: str) -> list:
        values = [aliases.get(value, value) for value in text.split(",")]
        for value in values:
            if value not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {value!r} (choose from {', '.join(names)})")
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"{text!r} names a value twice")
        return values

    p.add_argument(flag, type=parse, required=required, metavar="{%s}" % ",".join(names),
                   help=f"a comma list of {help}")


# Run-setting flags declare no default of their own: config_from_args leaves
# a flag that was not given to the ExperimentConfig default.
def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-root",
                   help="directory with TU-format datasets (default: $GRAPHCAPS_DATA or ./data)")
    p.add_argument("--out-root", help="output directory root")
    p.add_argument("--cache-dir", help="tensor cache directory")
    p.add_argument("--jobs", type=int,
                   help="processes for folds, extraction and t-SNE, at least 1 "
                        "(default: available cores)")


# With ``lists``, --labelling and --model take comma lists (see _run_configs);
# grid and embed take one value of each.
def _add_tensor_opts(p: argparse.ArgumentParser, lists: bool) -> None:
    p.add_argument("--dataset", required=True, help="dataset id, e.g. MUTAG or PTC")
    if lists:
        _add_list(p, "--labelling", LABELLINGS,
                  "node ranking procedures (nauty is an alias for canonical)", nauty="canonical")
    else:
        p.add_argument("--labelling", choices=[*LABELLINGS, "nauty"],
                       help="node ranking procedure (nauty is an alias for canonical)")
    p.add_argument("-w", type=int, help="anchors per graph (default: avg size)")
    p.add_argument("-k", type=int, help="receptive field size")


def _add_cv_opts(p: argparse.ArgumentParser, lists: bool) -> None:
    if lists:
        _add_list(p, "--model", list(MODELS), "classifiers")
    else:
        p.add_argument("--model", choices=list(MODELS))
    p.add_argument("--folds", type=int)


def _add_train_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--preset", choices=["paper", "small"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-decay", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lam", type=float, help="absent-class margin down-weight")
    p.add_argument("--alpha", type=float, help="reconstruction loss scale")
    p.add_argument("--routing-iters", type=int)
    p.add_argument("--loss-mode", choices=LOSS_MODES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcaps",
        description="Graph classification with receptive-field tensors and capsule networks",
    )
    parser.add_argument("--version", action="version", version=f"graphcaps {__version__}")
    parser.add_argument("--config", default=None, help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensorize", help="extract and cache graph tensors")
    _add_common(p)
    _add_tensor_opts(p, lists=True)
    p.add_argument("--force", action="store_true", help="overwrite a warm cache")
    p.set_defaults(func=cmd_tensorize)

    p = sub.add_parser("run", help="k-fold cross-validation of each labelling and model")
    _add_common(p)
    _add_tensor_opts(p, lists=True)
    _add_cv_opts(p, lists=True)
    _add_train_opts(p)
    p.add_argument("--repeats", type=int, default=1,
                   help="repeat the full CV with consecutive seeds, at least 1")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="exhaustive hyper-parameter grid search")
    _add_common(p)
    _add_tensor_opts(p, lists=False)
    _add_cv_opts(p, lists=False)
    _add_train_opts(p)
    p.add_argument("--epochs-grid", default="100,150,200")
    p.add_argument("--lr-grid", default="0.0005,0.001,0.005")
    p.add_argument("--decay-grid", default="0.25,0.4,0.75,1.5")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("embed", help="t-SNE embedding of a representation layer")
    _add_common(p)
    _add_tensor_opts(p, lists=False)
    _add_train_opts(p)
    _add_list(p, "--source", ["raw", "cnn", "caps"], "representation layers", required=True)
    p.add_argument("--perplexity", type=float, default=10.0)
    p.add_argument("--iters", type=int, default=500)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("report", help="combine result.json files into one table")
    p.add_argument("runs", nargs="+", help="run directories containing result.json")
    p.add_argument("-o", "--out", default="results/report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.set_defaults(func=lambda args: run_selftest())

    return parser


def _config_argv(argv: list) -> tuple:
    """(argv, config keys): each ``--config`` line becomes a flag right after
    the subcommand, before the user's flags, which win as argparse keeps the
    last value.  ``true`` gives a store-true flag and ``false`` none."""
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--config")
    split.add_argument("command", nargs="?")
    split.add_argument("rest", nargs=argparse.REMAINDER)
    pre, _ = split.parse_known_args(argv)
    if not pre.config or not pre.command:
        return argv, []
    values = read_config_file(pre.config)
    flags = []
    for key, value in values.items():
        flag = ("-" if len(key) == 1 else "--") + key.replace("_", "-")
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() != "false":
            flags += [flag, value]
    return ["--config", pre.config, pre.command, *flags, *pre.rest], list(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()

    try:
        argv, config_keys = _config_argv(argv)
        args, extra = parser.parse_known_args(argv)
        # a key that is no flag lands in extra, and as argparse accepts unique
        # prefixes, a misspelt key can also parse: both are named as keys
        unknown = [key for key in config_keys if key not in vars(args)]
        if unknown:
            parser.error(f"config key {unknown[0]!r} is not an option of {args.command!r}")
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
