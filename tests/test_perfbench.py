"""The contract between the package and the benchmark in ``perfbench/``: the
functions, methods and signatures that its probe calls and its tracer wraps,
and the arrays that its workloads pass."""

import importlib
import os

import numpy as np
import pytest

from graphcaps import analysis, experiment, models
from graphcaps.experiment import ExperimentConfig
from helpers import synthetic_dataset_graphs, write_tu_files


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    return importlib.import_module("probe"), importlib.import_module("spans")


@pytest.mark.parametrize("num_classes", [2, 3])  # the binary and the margin loss
def test_probe_step_returns_every_row(perfbench, num_classes):
    probe, _ = perfbench
    cfg = ExperimentConfig(dataset="SYN", preset="small", w=6, k=5, batch_size=4)
    out = probe.probe_step(cfg, 6, 4, num_classes, reps=1, seed=1)
    stages = ("autodiff.conv1", "autodiff.conv2", "autodiff.squash", "autodiff.caps_predict",
              "nn.routing", "models.decoder", "nn.loss")
    rows = [f"{stage}_{d}_ms" for stage in stages for d in ("fwd", "bwd")] + ["nn.adam_step_ms"]
    assert set(rows) <= set(out)
    assert all(out[row] >= 0.0 for row in rows)


def test_traced_callables_exist(perfbench):
    _, spans = perfbench
    for layer in spans.LAYERS:
        module = importlib.import_module(f"graphcaps.{layer}")
        targets = spans._targets(module)
        for owner, attr, _ in targets:
            assert callable(getattr(owner, attr)), f"{layer}: {attr}"
        # _targets finds private functions by name, so a renamed one would drop out
        names = {name for _, _, name in targets}
        for attr in spans.EXTRA.get(layer, ()):
            assert f"{layer}.{attr}" in names


def test_workloads_pass_the_uint8_one_hot_tensors(tmp_path):
    # run.py evaluates a capsule model on dataset_tensors' x, and runs t-SNE
    # on the flattened BC tensors: uint8 must read as its float copies do
    root = str(tmp_path / "data")
    write_tu_files(root, "SYN", synthetic_dataset_graphs(num_graphs=40, seed=3))
    cfg = ExperimentConfig(dataset="SYN", seed=1, jobs=1, data_root=root,
                           cache_dir=str(tmp_path / "cache"))
    x, y, w, channels, labels = experiment.dataset_tensors(cfg, log=lambda *a: None)
    assert x.dtype == np.uint8
    model = models.build_capsnet(w, cfg.k, channels, labels.num_classes, cfg.capsnet_config(),
                                 seed=1)
    assert (models.evaluate_accuracy(model, x, y)
            == models.evaluate_accuracy(model, x.astype(np.float32), y))
    flat = x.reshape(len(x), -1)
    tsne = dict(perplexity=10.0, iters=30, exaggeration_iters=10, momentum_switch=10, jobs=1)
    got, want = analysis.tsne(flat, **tsne), analysis.tsne(flat.astype(np.float64), **tsne)
    assert got.coords.tobytes() == want.coords.tobytes()
    assert (got.kl_initial, got.kl_final) == (want.kl_initial, want.kl_final)
