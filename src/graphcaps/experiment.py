"""Cross-validation harness: stratified folds, grid search, reports.

A run is driven by one :class:`ExperimentConfig`; its outputs live under
:meth:`ExperimentConfig.run_dir` as manifest.json (resolved config, version
and dataset checksums, written by :func:`write_manifest` once the data has
loaded and before training), folds.csv (deterministic per-fold payload),
traces/fold_*.csv (loss traces), result.json (summary incl. timings) and
report.csv / report.txt.  folds.csv intentionally contains no wall-clock
values so a repeated run is byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, tensor_cache
from ._pool import fork_map, processes
from .data import dataset_checksums, dataset_digest, load_tu_dataset, one_hot, read_labels
from .labelling import LABELLINGS
from .models import (
    LOSS_MODES,
    MODELS,
    CapsNetConfig,
    CnnConfig,
    TrainConfig,
    build_capsnet,
    build_cnn,
    evaluate_accuracy,
    primary_grid,
    train_model,
)
from .tensor_cache import CacheError, load_orders, load_tensors, save_orders, save_tensors
from .tensorize import default_width, padded_anchor_count, tensorize_dataset

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # declared, but run_cv reports when it is missing
    threadpool_limits = None

PTC_SUBSETS = ("PTC_MM", "PTC_FM", "PTC_MR", "PTC_FR")

# ExperimentConfig fields that only say where and how fast a run executes;
# the run id leaves them out, so they never split a run's directory.
UNHASHED = ("jobs", "out_root", "cache_dir", "data_root")

# Architecture dims are fixed design decisions; the preset picks the epoch
# count and the scaled-down capsule geometry for CI-speed runs.
PRESETS = {
    "paper": {
        "capsnet": dict(conv_filters=256, primary_channels=32, decoder_hidden=(512, 1024)),
        "epochs": {"capsules": 150, "cnn": 200},
    },
    "small": {
        "capsnet": dict(conv_filters=64, primary_channels=8, decoder_hidden=(128, 256)),
        "epochs": {"capsules": 60, "cnn": 120},
    },
}


@dataclass
class ExperimentConfig:
    """One run's settings, and the one place each of them has a default."""

    dataset: str
    labelling: str = "bc"  # one of labelling.LABELLINGS
    model: str = "capsules"  # one of models.MODELS
    preset: str = "small"
    w: int | None = None
    k: int = 10
    folds: int = 10
    seed: int = 1
    epochs: int | None = None  # None -> the preset's count for the model
    base_lr: float = 1e-3
    lr_decay: float = 0.01
    batch_size: int = 50
    lam: float = 0.5
    alpha: float = 1.0
    routing_iters: int = 3
    loss_mode: str = "auto"
    jobs: int | None = None  # None -> available cores
    data_root: str = "data"
    out_root: str = "results"
    cache_dir: str | None = None

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.labelling not in LABELLINGS:
            raise ValueError(f"unknown labelling {self.labelling!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.epochs is None:
            self.epochs = PRESETS[self.preset]["epochs"][self.model]
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.train_config(self.seed)  # checks base_lr and lr_decay
        for name in ("lam", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.routing_iters < 1:
            raise ValueError("routing_iters must be >= 1")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"unknown loss_mode {self.loss_mode!r}")
        self.jobs = processes(self.jobs)
        if self.cache_dir is None:
            self.cache_dir = os.path.join(self.out_root, "cache")

    def capsnet_config(self) -> CapsNetConfig:
        return CapsNetConfig(
            routing_iters=self.routing_iters,
            lam=self.lam,
            alpha=self.alpha,
            loss_mode=self.loss_mode,
            **PRESETS[self.preset]["capsnet"],
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           base_lr=self.base_lr, lr_decay=self.lr_decay, seed=seed)

    def build_model(self, w: int, channels: int, num_classes: int, seed: int):
        if self.model == "capsules":
            return build_capsnet(w, self.k, channels, num_classes, self.capsnet_config(),
                                 seed=seed)
        return build_cnn(w, self.k, channels, num_classes, CnnConfig(), seed=seed)

    def dataset_names(self) -> list:
        """The TU datasets this config reads: ``PTC`` means its four animal
        sub-datasets."""
        return list(PTC_SUBSETS) if self.dataset.upper() == "PTC" else [self.dataset]

    def run_id(self) -> str:
        """A readable prefix, then 10 hex digits of a sha256 over every field
        except :data:`UNHASHED`, the tensor cache version and the contents of
        every dataset read, so configs that differ in results, extraction or
        data never share an id."""
        prefix = "_".join([
            self.dataset,
            self.labelling,
            self.model,
            self.preset,
            f"f{self.folds}",
            f"e{self.epochs}",
            f"s{self.seed}",
        ])
        fields = {key: value for key, value in self.to_dict().items() if key not in UNHASHED}
        fields["tensor_cache_version"] = tensor_cache.VERSION
        digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))
        for name in self.dataset_names():
            digest.update(dataset_digest(self.data_root, name))
        return f"{prefix}_{digest.hexdigest()[:10]}"

    def run_dir(self, prefix: str = "", suffix: str = "") -> str:
        """``<out_root>/<prefix><run id><suffix>``: the one rule for where a
        run, a grid search (``grid_``) or an embedding (``embed_``) writes."""
        return os.path.join(self.out_root, f"{prefix}{self.run_id()}{suffix}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ExperimentResult:
    dataset: str
    variant: str
    fold_accuracies: list
    mean_accuracy: float
    std_accuracy: float
    train_seconds_mean: float
    train_seconds_std: float
    config: dict = field(default_factory=dict)
    version: str = ""

    @staticmethod
    def from_folds(dataset, variant, accuracies, seconds, config) -> "ExperimentResult":
        acc = np.asarray(accuracies, dtype=np.float64)
        sec = np.asarray(seconds, dtype=np.float64)
        return ExperimentResult(
            dataset=dataset,
            variant=variant,
            fold_accuracies=[float(a) for a in acc],
            mean_accuracy=float(acc.mean()),
            std_accuracy=float(acc.std()),  # population std over folds
            train_seconds_mean=float(sec.mean()),
            train_seconds_std=float(sec.std()),
            config=config,
            version=version_stamp(),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@functools.lru_cache(maxsize=None)
def version_stamp() -> str:
    """The package version and ``git describe --dirty`` of the imported code,
    so a modified tree reads ``<sha>-dirty``.  Asked once per process."""
    try:
        sha = (
            subprocess.run(
                ["git", "describe", "--always", "--dirty", "--abbrev=7"],
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
                timeout=5,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return f"graphcaps {__version__} ({sha})"


def variant_name(labelling: str, model: str) -> str:
    lab = "BC" if labelling == "bc" else "Canonical"
    return f"{lab} + {MODELS[model]}"


def kfold_split(n_samples: int, folds: int, seed: int, strata) -> list:
    """Stratified disjoint covering folds whose per-class sizes differ by <= 1.

    Each class's shuffled indices are cut into ``folds`` chunks; the larger
    chunks go to the currently least-loaded folds, which also keeps the fold
    totals balanced.
    """
    if folds > n_samples:
        raise ValueError(f"cannot make {folds} folds from {n_samples} samples")
    strata = np.asarray(strata)
    if len(strata) != n_samples:
        raise ValueError("strata length must equal n_samples")
    rng = np.random.default_rng([seed, 0x666F6C64])
    fold_indices = [[] for _ in range(folds)]
    loads = np.zeros(folds, dtype=np.int64)
    for cls in np.unique(strata):
        members = np.flatnonzero(strata == cls)
        if len(members) < folds:
            warnings.warn(
                f"class {cls} has {len(members)} samples for {folds} folds; "
                "some folds will miss it",
                stacklevel=2,
            )
        members = members[rng.permutation(len(members))]
        base, extra = divmod(len(members), folds)
        # least-loaded folds receive the size-(base+1) chunks
        order = np.lexsort((np.arange(folds), loads))
        sizes = np.full(folds, base, dtype=np.int64)
        sizes[order[:extra]] += 1
        start = 0
        for f in range(folds):
            take = int(sizes[f])
            fold_indices[f].extend(int(i) for i in members[start : start + take])
            loads[f] += take
            start += take
    return [np.array(sorted(fi), dtype=np.int64) for fi in fold_indices]


def tensorize_cached(cfg: ExperimentConfig, name: str | None = None, force: bool = False,
                     log=print, search: bool | None = None):
    """Load and tensorize one dataset through the tensor cache.

    Returns (grids, y, w, labels) with ``(n, w, k)`` label grids, the
    dataset's class labels and its :class:`graphcaps.data.TuLabels`.  A warm
    cache is read unless ``force``; a cache hit reads only the dataset's label
    files, and its edges are parsed and its graphs built only on a miss.  A
    cache file :func:`load_tensors` cannot use is rebuilt.  A cold extraction takes
    the graphs' canonical orders from the dataset's orders file
    (``<cache_dir>/<name>_orders.gct``, shared by every labelling, ``w`` and
    ``k``) when :func:`load_orders` accepts it and not ``search``, which
    defaults to ``force``; otherwise it searches every graph and writes that
    file.  A command that rebuilds several labellings passes ``search`` for
    the first only, so it searches each graph once.  The graphs are
    tensorized as loaded: a graph's tensor depends only on its isomorphism
    class (the ``tensor-invariance`` selftest checks this), so no seed enters
    the tensors or the cache file name.  ``name`` defaults to ``cfg.dataset``,
    which must then name one dataset.
    """
    if name is None:
        names = cfg.dataset_names()
        if len(names) > 1:
            raise ValueError(f"dataset {cfg.dataset} is {len(names)} datasets "
                             f"({', '.join(names)}); name one of them")
        name = names[0]
    labels = read_labels(cfg.data_root, name)
    d = labels.num_node_labels
    w = cfg.w if cfg.w is not None else default_width(labels.sizes)
    y = labels.classes
    digest = dataset_digest(cfg.data_root, name)
    cache_path = os.path.join(cfg.cache_dir, f"{name}_{cfg.labelling}_w{w}_k{cfg.k}.gct")
    if os.path.isfile(cache_path) and not force:
        try:
            grids = load_tensors(cache_path, digest, (len(labels), w, cfg.k), d)
        except CacheError as exc:
            log(f"[tensorize] stale cache, rebuilding: {exc}")
        else:
            log(f"[tensorize] {name}: warm cache, {len(grids)} tensors, "
                f"nothing to do: {cache_path}")
            return grids, y, w, labels
    ds = load_tu_dataset(cfg.data_root, name, labels)
    t0 = time.perf_counter()
    orders_path = os.path.join(cfg.cache_dir, f"{name}_orders.gct")
    orders = None
    if os.path.isfile(orders_path) and not (force if search is None else search):
        try:
            flat = load_orders(orders_path, digest, labels.sizes)
        except CacheError as exc:
            log(f"[tensorize] stale cache, rebuilding: {exc}")
        else:
            orders = np.split(flat, np.cumsum(labels.sizes)[:-1])
    grids, searched = tensorize_dataset(ds, w, cfg.k, cfg.labelling, cfg.jobs, orders)
    if orders is None:
        save_orders(orders_path, np.concatenate(searched), digest)
    save_tensors(cache_path, grids, digest)
    source = (f"orders from {orders_path}" if orders is not None
              else f"searched {len(ds)} graphs -> {orders_path}")
    log(
        f"[tensorize] {name}: cold cache, {len(grids)} tensors ({w}x{cfg.k}x{d + 1}), "
        f"{padded_anchor_count(ds, w)} padded anchors, {source}, "
        f"{time.perf_counter() - t0:.1f}s -> {cache_path}"
    )
    return grids, y, w, labels


def dataset_tensors(cfg: ExperimentConfig, name: str | None = None, log=print):
    """One dataset's one-hot tensors, through the tensor cache.

    Returns (x, y, w, channels, labels) with ``x`` a C-contiguous uint8
    ``(n, w, k, channels)`` array (see :func:`graphcaps.data.one_hot`), which
    the models cast a batch at a time, and ``labels`` the dataset's
    :class:`graphcaps.data.TuLabels`.
    """
    grids, y, w, labels = tensorize_cached(cfg, name, log=log)
    return one_hot(grids, labels.num_node_labels), y, w, labels.num_node_labels + 1, labels


def load_datasets(cfg: ExperimentConfig, log=print) -> dict:
    """Every dataset the config reads, as ``{name: (x, y, num_classes)}``:
    the one load of a command.  Each dataset goes through
    :func:`dataset_tensors` once, and its fold count, the classes of every
    fold's training split and its capsule geometry (the CNN takes any) are
    checked, so a dataset that fails to load or to fit fails before any
    output exists."""
    data = {}
    for name in cfg.dataset_names():
        x, y, w, _, labels = dataset_tensors(cfg, name, log=log)
        counts = np.bincount(y, minlength=labels.num_classes)
        for fold, test_idx in enumerate(kfold_split(len(y), cfg.folds, cfg.seed, strata=y)):
            missing = np.flatnonzero(counts == np.bincount(y[test_idx], minlength=len(counts)))
            if len(missing):  # the message train_model would give in that fold
                raise ValueError(f"fold {fold}: training split has no sample of class "
                                 f"{missing[0]}")
        if cfg.model == "capsules":
            primary_grid(w, cfg.k, cfg.capsnet_config())
        data[name] = x, y, labels.num_classes
    return data


def write_manifest(out_dir: str, cfg: ExperimentConfig, **extra) -> None:
    """``<out_dir>/manifest.json``: the resolved config with its dataset list
    and ``extra``, the :func:`version_stamp`, and the sha256 of every file of
    every dataset the config reads.  Callers write it once those datasets have
    loaded, so no manifest stands for input that failed to load."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "resolved_config": dict(cfg.to_dict(), datasets=cfg.dataset_names(), **extra),
        "version": version_stamp(),
        "started_utc": datetime.now(timezone.utc).isoformat(),
        "dataset_checksums": {name: dataset_checksums(cfg.data_root, name)
                              for name in cfg.dataset_names()},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def fold_seed(base_seed: int, fold: int) -> int:
    return (base_seed * 0x9E3779B1 + fold * 0x85EBCA77) % (1 << 32)


def _run_fold(cfg, x, y, num_classes, task):
    """Train and test fold ``task = (fold, test_idx)`` of ``(x, y)``; errors name the fold."""
    fold, test_idx = task
    seed = fold_seed(cfg.seed, fold)
    train_idx = np.setdiff1d(np.arange(len(x)), test_idx)
    _, w, _, channels = x.shape
    try:
        model = cfg.build_model(w, channels, num_classes, seed)
        # parallel folds each get one BLAS thread, so they do not oversubscribe
        capped = cfg.jobs > 1 and threadpool_limits is not None
        with threadpool_limits(limits=1) if capped else contextlib.nullcontext():
            tr = train_model(model, x[train_idx], y[train_idx], cfg.train_config(seed))
            acc = evaluate_accuracy(model, x[test_idx], y[test_idx])
    except Exception as exc:
        exc.args = (f"fold {fold}: {exc}",)
        raise
    return {
        "fold": fold,
        "seed": seed,
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
        "accuracy": float(acc),
        "final_loss": float(tr.final_loss),
        "seconds": float(tr.seconds),
        "trace": tr.loss_trace,
    }


FOLD_COLUMNS = ("fold", "seed", "n_train", "n_test", "accuracy", "final_loss")


def _write_folds_csv(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FOLD_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["fold"], row["seed"], row["n_train"], row["n_test"],
                 f"{row['accuracy']:.10f}", f"{row['final_loss']:.10f}"]
            )


def _write_trace_csv(path: str, trace: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "total", "margin", "mse", "seconds"])
        for row in trace:
            writer.writerow(
                [row["epoch"], f"{row['total']:.8f}", f"{row['margin']:.8f}",
                 f"{row['mse']:.8f}", f"{row['seconds']:.3f}"]
            )


def run_cv(cfg: ExperimentConfig, name: str, data: tuple, run_dir: str,
           log=print) -> ExperimentResult:
    """Stratified k-fold cross-validation of one (dataset, labelling, model)
    cell on ``data``, dataset ``name``'s entry of :func:`load_datasets`, into
    ``run_dir``.  Folds in folds_partial.json are reused, so an interrupted run
    resumes at the next fold; the run id keeps other configs and other dataset
    contents out of that directory."""
    x, y, num_classes = data
    folds = kfold_split(len(y), cfg.folds, cfg.seed, strata=y)
    os.makedirs(os.path.join(run_dir, "traces"), exist_ok=True)
    write_manifest(run_dir, cfg)
    partial = os.path.join(run_dir, "folds_partial.json")
    if cfg.jobs > 1 and threadpool_limits is None:
        log("[run] threadpoolctl missing: BLAS threads in fold workers are not capped")

    done = {}
    if os.path.isfile(partial):
        with open(partial) as fh:
            for row in json.load(fh):
                done[row["fold"]] = row
        if done:
            log(f"[run] resuming: folds {sorted(done)} already complete")

    # a task is its fold; fold workers inherit the dataset at the fork
    pending = [(f, folds[f]) for f in range(cfg.folds) if f not in done]
    for _, row in fork_map(_run_fold, pending, cfg.jobs, cfg, x, y, num_classes,
                           name=lambda task: f"fold {task[0]}"):
        done[row["fold"]] = row
        _persist_partial(partial, done)
        log(_fold_line(row))

    rows = [done[f] for f in range(cfg.folds)]
    _write_folds_csv(os.path.join(run_dir, "folds.csv"), rows)
    for row in rows:
        _write_trace_csv(os.path.join(run_dir, "traces", f"fold_{row['fold']}.csv"), row["trace"])

    result = ExperimentResult.from_folds(
        dataset=name,
        variant=variant_name(cfg.labelling, cfg.model),
        accuracies=[r["accuracy"] for r in rows],
        seconds=[r["seconds"] for r in rows],
        config=cfg.to_dict(),
    )
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
    emit_report([result], run_dir)
    os.remove(partial)
    return result


def _persist_partial(path: str, done: dict) -> None:
    """Write the finished folds through a temporary file, so an interrupt
    leaves the previous file whole."""
    with open(path + ".tmp", "w") as fh:
        json.dump([done[f] for f in sorted(done)], fh)
    os.replace(path + ".tmp", path)


def _fold_line(row: dict) -> str:
    return (
        f"[fold {row['fold']}] acc={row['accuracy']:.4f} "
        f"loss={row['final_loss']:.4f} ({row['seconds']:.1f}s)"
    )


def run_experiment(cfg: ExperimentConfig, data: dict, log=print) -> ExperimentResult:
    """run_cv on ``data`` from :func:`load_datasets` into the config's run
    directory, plus the PTC convention: dataset id PTC expands to its four
    animal sub-datasets, each run into ``<run dir>/<sub-dataset>``, and the
    reported cell is their average."""
    names = cfg.dataset_names()
    parent = cfg.run_dir()
    if names == [cfg.dataset]:
        return run_cv(cfg, cfg.dataset, data[cfg.dataset], parent, log=log)
    write_manifest(parent, cfg)
    subresults = []
    for sub in names:
        subresults.append(run_cv(cfg, sub, data[sub], os.path.join(parent, sub), log=log))
        log(f"[PTC] {sub}: {subresults[-1].mean_accuracy:.4f}")
    result = ExperimentResult(
        dataset="PTC",
        variant=variant_name(cfg.labelling, cfg.model),
        fold_accuracies=[a for r in subresults for a in r.fold_accuracies],
        mean_accuracy=float(np.mean([r.mean_accuracy for r in subresults])),
        std_accuracy=float(np.mean([r.std_accuracy for r in subresults])),
        train_seconds_mean=float(np.mean([r.train_seconds_mean for r in subresults])),
        train_seconds_std=float(np.mean([r.train_seconds_std for r in subresults])),
        config=cfg.to_dict(),
        version=version_stamp(),
    )
    with open(os.path.join(parent, "result.json"), "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
    emit_report([result], parent)
    return result


def _grid_cells(cfg: ExperimentConfig, grid: dict) -> list:
    """The config of every cell, in grid.csv order; an axis missing from
    ``grid`` takes the base config's value."""
    axes = [list(grid.get(key, [getattr(cfg, key)])) for key in ("epochs", "base_lr", "lr_decay")]
    if not all(axes):
        raise ValueError("grid axes must be non-empty")
    return [
        dataclasses.replace(cfg, epochs=int(epochs), base_lr=float(lr), lr_decay=float(decay))
        for epochs, lr, decay in itertools.product(*axes)
    ]


def grid_dir(cfg: ExperimentConfig, grid: dict) -> str:
    """``<out_root>/grid_<first cell's run id>_<10 hex of a sha256 over the
    grid axes>``.  Every cell overrides the base config's epochs, base_lr and
    lr_decay, so those name the directory only through the axes, and grid
    searches that differ only in their axes never share a directory."""
    axes = hashlib.sha256(json.dumps(grid, sort_keys=True).encode("utf-8")).hexdigest()
    return _grid_cells(cfg, grid)[0].run_dir("grid_", "_" + axes[:10])


def grid_search(cfg: ExperimentConfig, grid: dict, log=print):
    """Exhaustive product over {epochs, base_lr, lr_decay} lists.

    Each cell is an ordinary :func:`run_experiment`, on datasets loaded once,
    under :func:`grid_dir`, whose manifest records the first cell's config and
    the axes.
    Ties on mean CV accuracy break toward fewer epochs, then lower lr.
    Returns (best ExperimentConfig, best ExperimentResult, all cell results).
    """
    cell_cfgs = _grid_cells(cfg, grid)
    data = load_datasets(cfg, log=log)
    parent = grid_dir(cfg, grid)
    write_manifest(parent, cell_cfgs[0], grid=grid)
    cells = []
    for cell_cfg in cell_cfgs:
        log(f"[grid] cell epochs={cell_cfg.epochs} lr={cell_cfg.base_lr} "
            f"decay={cell_cfg.lr_decay}")
        cell_cfg = dataclasses.replace(cell_cfg, out_root=parent)
        cells.append((cell_cfg, run_experiment(cell_cfg, data, log=log)))

    with open(os.path.join(parent, "grid.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epochs", "base_lr", "lr_decay", "mean_accuracy", "std_accuracy"])
        for cell_cfg, res in cells:
            writer.writerow(
                [cell_cfg.epochs, cell_cfg.base_lr, cell_cfg.lr_decay,
                 f"{res.mean_accuracy:.6f}", f"{res.std_accuracy:.6f}"]
            )

    best_cfg, best_res = min(
        cells, key=lambda cr: (-cr[1].mean_accuracy, cr[0].epochs, cr[0].base_lr)
    )
    with open(os.path.join(parent, "best.json"), "w") as fh:
        json.dump({"config": best_cfg.to_dict(), "result": best_res.to_dict()}, fh, indent=2)
    return best_cfg, best_res, cells


def _repeat_groups(results: list) -> dict:
    """The results of each (variant, dataset) cell, in input order.  The runs
    of one cell must be repeats: configs equal but for the seed and the
    :data:`UNHASHED` fields, and seeds distinct.  Raises ValueError naming
    the first field in which two configs of one cell differ, or the cell's
    first seed given twice."""
    groups = {}
    for r in results:
        groups.setdefault((r.variant, r.dataset), []).append(r)
    for (variant, dataset), runs in groups.items():
        first = runs[0].config
        for other in runs[1:]:
            for key in dict.fromkeys([*first, *other.config]):
                if key not in ("seed", *UNHASHED) and first.get(key) != other.config.get(key):
                    raise ValueError(
                        f"{variant} / {dataset}: runs differ in {key} "
                        f"({first.get(key)!r} vs {other.config.get(key)!r}); "
                        "report them separately"
                    )
        seeds = [r.config.get("seed") for r in runs]
        for i, seed in enumerate(seeds):
            if seed in seeds[:i]:  # a run given twice, not a repeat
                raise ValueError(f"{variant} / {dataset}: seed {seed} is given twice; "
                                 "report each run once")
    return groups


def _cell_text(runs: list) -> str:
    """One run: its mean ± fold-level std.  Repeats: the mean of their means
    ± the population std of those means, marked with the repeat count."""
    if len(runs) == 1:
        return f"{100 * runs[0].mean_accuracy:.1f} ± {100 * runs[0].std_accuracy:.2f}"
    means = np.array([r.mean_accuracy for r in runs])
    return f"{100 * means.mean():.1f} ± {100 * means.std():.2f} (n={len(runs)})"


def emit_report(results: list, out_dir: str) -> str:
    """Cross table (variant rows x dataset columns, cells "mean ± std" in %)
    written as report.csv and aligned report.txt.  Every result is kept: the
    repeats of one cell (see :func:`_repeat_groups`) are combined, and a
    warning names the code versions when the results come from several."""
    groups = _repeat_groups(results)
    versions = sorted({r.version for r in results})
    provenance = []
    if len(versions) > 1:
        provenance = [f"results come from {len(versions)} code versions: {'; '.join(versions)}"]
        warnings.warn(provenance[0], stacklevel=2)
    os.makedirs(out_dir, exist_ok=True)
    variants = sorted({r.variant for r in results})
    datasets = sorted({r.dataset for r in results})
    table = [[v, *[_cell_text(groups[v, d]) if (v, d) in groups else "" for d in datasets]]
             for v in variants]
    header = ["variant", *datasets]

    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table)

    widths = [max(len(row[i]) for row in [header, *table]) for i in range(len(header))]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(row, widths))
        for row in [header, ["-" * w for w in widths], *table]
    ]
    timing = [
        f"{r.variant} / {r.dataset}: train {r.train_seconds_mean:.1f} ± "
        f"{r.train_seconds_std:.1f} s/fold" for r in results
    ]
    footer = [
        "accuracies are percentages; a cell of one run is its mean ± population std "
        "over folds (fold-level);",
        "a cell marked (n=R) is the mean of R repeats' fold means ± the population std "
        "of those R means (repeat-level);",
        "PTC cells average the MM/FM/MR/FR sub-datasets",
    ]
    text = "\n".join(lines + [""] + timing + [""] + footer + provenance + [""])
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text)
    return csv_path
