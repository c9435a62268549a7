"""The contract between the package and the benchmark in ``perfbench/``: the
functions, methods and signatures that its probe calls and its tracer wraps."""

import importlib
import os

import pytest

from graphcaps.experiment import ExperimentConfig


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
