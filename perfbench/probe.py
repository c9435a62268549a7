"""Per-op probe of one capsule-network training step at a workload's shapes.

Each row times the forward and the backward of one stage of
``CapsNet.loss_batch`` on its own: the stage's inputs are fresh leaf tensors
holding the values the previous stage produced, so a backward row covers that
stage's rules only.  Times are medians over repetitions, in milliseconds.

The GEMM FLOP and byte counts are computed from the shapes, not measured.
"""

from __future__ import annotations

import time

import numpy as np

from graphcaps import autodiff, nn
from graphcaps.autodiff import Tensor
from graphcaps.experiment import ExperimentConfig
from graphcaps.models import build_capsnet


def _backward_from(out: Tensor, g: np.ndarray) -> None:
    """Reverse pass from ``out`` seeded with gradient ``g`` (any shape), in
    the same order ``Tensor.backward`` uses."""
    topo, visited, stack = [], set(), [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in visited)
    out.grad = g
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def _leaf(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=True)


def _median_ms(fn, reps: int) -> float:
    fn()  # warm-up: first-touch allocations
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def _row(make, leaves, reps: int, rng) -> tuple[float, float]:
    """(forward ms, backward ms) of the stage ``make()`` builds; ``leaves``
    are the tensors whose gradients the backward fills."""
    g = rng.standard_normal(make().data.shape)

    def bwd_seconds():
        out, seed = make(), g.copy()
        for t in leaves:
            t.zero_grad()
        t0 = time.perf_counter()
        _backward_from(out, seed)
        return time.perf_counter() - t0

    fwd_ms = _median_ms(make, reps)
    bwd_seconds()
    return fwd_ms, 1e3 * float(np.median([bwd_seconds() for _ in range(reps)]))


def gemm_counts(model, batch: int) -> dict:
    """Computed GEMM work of one training step (forward + backward)."""
    cfg = model.cfg
    h1 = (model.w - cfg.conv_kernel) // cfg.conv_stride + 1
    w1 = (model.k - cfg.conv_kernel) // cfg.conv_stride + 1
    h2, w2 = model.primary_spatial
    pc_out = cfg.primary_channels * cfg.primary_dim
    n_caps = model.num_classes * cfg.caps_dim
    widths = [n_caps, *cfg.decoder_hidden, model.recon_dim]
    # name: (M, K, N, GEMMs per step): forward, weight grad and, where the
    # input needs a gradient, input grad
    gemms = {
        "conv1": (batch * h1 * w1, cfg.conv_kernel**2 * model.channels, cfg.conv_filters, 2),
        "conv2": (batch * h2 * w2, cfg.primary_kernel**2 * cfg.conv_filters, pc_out, 3),
        # n_primary independent (B x d_in) @ (d_in x n_out*d_out) GEMMs
        "caps_predict": (batch, cfg.primary_dim, n_caps, 3 * model.n_primary),
        **{f"dec{i}": (batch, fan_in, fan_out, 3)
           for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:]), start=1)},
    }
    flop = {name: 2 * m * k * n * c for name, (m, k, n, c) in gemms.items()}
    nbytes = sum(8 * (m * k + k * n + m * n) * c for m, k, n, c in gemms.values())
    return {
        "conv_gflop_per_step": (flop["conv1"] + flop["conv2"]) / 1e9,
        "gemm_gflop_per_step": sum(flop.values()) / 1e9,
        "gemm_mb_per_step": nbytes / 1e6,
    }


def probe_step(cfg: ExperimentConfig, w: int, channels: int, num_classes: int,
               reps: int, seed: int) -> dict:
    """Forward/backward ms of each stage of one training step of the capsule
    network that ``cfg`` builds, at its batch size."""
    rng = np.random.default_rng([seed, 0x70726F])
    model = build_capsnet(w, cfg.k, channels, num_classes, cfg.capsnet_config(), seed=seed)
    mc, p, B = model.cfg, model.params, cfg.batch_size
    labels = rng.integers(0, channels, (B, w, cfg.k))
    x = Tensor(np.eye(channels)[labels])
    y = np.arange(B) % num_classes

    h1 = autodiff.conv2d(x, p["conv1_w"], p["conv1_b"], stride=mc.conv_stride).relu()
    h1 = _leaf(h1)
    h2 = autodiff.conv2d(h1, p["conv2_w"], p["conv2_b"], stride=mc.primary_stride)
    u = _leaf(h2.reshape(B, model.n_primary, mc.primary_dim))
    u_sq = _leaf(nn.squash(u))
    u_hat = _leaf(autodiff.caps_predict(u_sq, p["caps_w"]))
    v = _leaf(nn.dynamic_routing(u_hat, mc.routing_iters))
    mask = np.zeros((B, num_classes))
    mask[np.arange(B), y] = 1.0
    norms = _leaf(nn.capsule_norms(v))
    recon = _leaf(model._decode(v, mask))

    def loss():
        if model.loss_mode == "binary_ce":
            ml = nn.binary_margin_loss(norms, y)
        else:
            ml = nn.margin_loss(norms, y, lam=mc.lam)
        return nn.total_loss(ml, nn.reconstruction_loss(recon, x), alpha=mc.alpha)

    params = list(p.values())
    rows = {
        "autodiff.conv1": lambda: autodiff.conv2d(x, p["conv1_w"], p["conv1_b"],
                                                  stride=mc.conv_stride),
        "autodiff.conv2": lambda: autodiff.conv2d(h1, p["conv2_w"], p["conv2_b"],
                                                  stride=mc.primary_stride),
        "autodiff.squash": lambda: nn.squash(u),
        "autodiff.caps_predict": lambda: autodiff.caps_predict(u_sq, p["caps_w"]),
        "nn.routing": lambda: nn.dynamic_routing(u_hat, mc.routing_iters),
        "models.decoder": lambda: model._decode(v, mask),
        "nn.loss": loss,
    }
    out = {}
    for name, make in rows.items():
        fwd, bwd = _row(make, params + [h1, u, u_sq, u_hat, v, norms, recon], reps, rng)
        out[f"{name}_fwd_ms"] = fwd
        out[f"{name}_bwd_ms"] = bwd

    grads = {name: rng.standard_normal(t.data.shape) * 1e-3 for name, t in p.items()}
    state = nn.AdamState(base_lr=cfg.base_lr, decay=cfg.lr_decay)
    out["nn.adam_step_ms"] = _median_ms(lambda: nn.adam_step(p, grads, state, 0), reps)
    out.update({f"autodiff.{k}": val for k, val in gemm_counts(model, B).items()})
    return out
