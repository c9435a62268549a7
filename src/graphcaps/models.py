"""Model assembly: the graph capsule network and the Patchy-San style CNN
baseline, plus a deterministic mini-batch training loop.

Both models consume the ``(w, k, d+1)`` graph tensors, hold their parameters
in a flat name -> Tensor dict, and share the ``loss_batch`` / ``predict`` /
``inner_features`` interface the experiment harness drives.  Parameters are
created as :data:`graphcaps.data.FLOAT` (float32), the dtype of the one-hot
tensors, so training and inference run in float32; everything created inside
a step takes the dtype of the arrays it combines with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff, nn
from .autodiff import Tensor, conv2d, caps_predict, no_grad
from .data import FLOAT


class ConfigError(ValueError):
    """Model geometry that cannot be assembled as configured."""


# The capsule losses: auto picks binary_ce for two classes, else margin.
LOSS_MODES = ("auto", "margin", "binary_ce")


@dataclass
class CapsNetConfig:
    conv_filters: int = 256
    conv_kernel: int = 3
    conv_stride: int = 1
    primary_channels: int = 32
    primary_dim: int = 8
    primary_kernel: int = 3
    primary_stride: int = 2
    caps_dim: int = 16
    decoder_hidden: tuple = (512, 1024)
    routing_iters: int = 3
    lam: float = 0.5
    alpha: float = 1.0
    loss_mode: str = "auto"  # one of LOSS_MODES

    def resolve_loss_mode(self, num_classes: int) -> str:
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"unknown loss mode {self.loss_mode!r}")
        if self.loss_mode == "auto":
            return "binary_ce" if num_classes == 2 else "margin"
        return self.loss_mode


@dataclass
class CnnConfig:
    conv1_filters: int = 16
    conv2_filters: int = 8
    conv2_kernel: int = 10
    dense_width: int = 128
    dropout: float = 0.5


def _conv_out(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


class CapsNet:
    """conv -> primary capsules -> class capsules (routing) -> decoder."""

    def __init__(self, w: int, k: int, channels: int, num_classes: int,
                 cfg: CapsNetConfig, seed: int = 0):
        self.w, self.k, self.channels, self.num_classes = w, k, channels, num_classes
        self.cfg = cfg
        self.loss_mode = cfg.resolve_loss_mode(num_classes)

        h1 = _conv_out(w, cfg.conv_kernel, cfg.conv_stride)
        w1 = _conv_out(k, cfg.conv_kernel, cfg.conv_stride)
        if h1 < 1 or w1 < 1:
            raise ConfigError(
                f"conv layer needs input >= {cfg.conv_kernel}x{cfg.conv_kernel}, "
                f"got {w}x{k}"
            )
        h2 = _conv_out(h1, cfg.primary_kernel, cfg.primary_stride)
        w2 = _conv_out(w1, cfg.primary_kernel, cfg.primary_stride)
        if h2 < 1 or w2 < 1:
            raise ConfigError(
                f"primary capsule conv cannot reshape {h1}x{w1}x{cfg.conv_filters} "
                f"with kernel {cfg.primary_kernel} stride {cfg.primary_stride}"
            )
        self.primary_spatial = (h2, w2)
        self.n_primary = h2 * w2 * cfg.primary_channels
        self.recon_dim = w * k * channels

        rng = np.random.default_rng([seed, 0x6361])
        p = {}
        ck, cs = cfg.conv_kernel, cfg.conv_filters
        p["conv1_w"] = rng.normal(0.0, np.sqrt(2.0 / (ck * ck * channels)), (ck, ck, channels, cs))
        p["conv1_b"] = np.zeros(cs)
        pk = cfg.primary_kernel
        pc_out = cfg.primary_channels * cfg.primary_dim
        p["conv2_w"] = rng.normal(0.0, np.sqrt(2.0 / (pk * pk * cs)), (pk, pk, cs, pc_out))
        p["conv2_b"] = np.zeros(pc_out)
        # scale so routed pre-squash sums start near unit norm regardless of
        # how many primary capsules feed each class capsule
        caps_std = 2.0 / np.sqrt(self.n_primary * cfg.primary_dim)
        p["caps_w"] = rng.normal(
            0.0, caps_std, (self.n_primary, num_classes, cfg.primary_dim, cfg.caps_dim)
        )
        widths = [num_classes * cfg.caps_dim, *cfg.decoder_hidden, self.recon_dim]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:]), start=1):
            scale = np.sqrt(2.0 / fan_in) if i < len(widths) - 1 else np.sqrt(1.0 / fan_in)
            p[f"dec{i}_w"] = rng.normal(0.0, scale, (fan_in, fan_out))
            p[f"dec{i}_b"] = np.zeros(fan_out)
        self.params = {name: Tensor(arr.astype(FLOAT), requires_grad=True)
                       for name, arr in p.items()}

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def _capsule_forward(self, x: Tensor):
        cfg, p = self.cfg, self.params
        h = conv2d(x, p["conv1_w"], p["conv1_b"], stride=cfg.conv_stride).relu()
        h = conv2d(h, p["conv2_w"], p["conv2_b"], stride=cfg.primary_stride)
        B = h.data.shape[0]
        u = h.reshape(B, self.n_primary, cfg.primary_dim)
        u = nn.squash(u)
        u_hat = caps_predict(u, p["caps_w"])
        v = nn.dynamic_routing(u_hat, cfg.routing_iters)
        return u, v

    def _decode(self, v: Tensor, mask: np.ndarray) -> Tensor:
        p = self.params
        B = v.data.shape[0]
        h = (v * Tensor(mask[:, :, None])).reshape(B, self.num_classes * self.cfg.caps_dim)
        n_hidden = len(self.cfg.decoder_hidden)
        for i in range(1, n_hidden + 1):
            h = (h @ p[f"dec{i}_w"] + p[f"dec{i}_b"]).relu()
        h = (h @ p[f"dec{n_hidden + 1}_w"] + p[f"dec{n_hidden + 1}_b"]).sigmoid()
        return h.reshape(B, self.w, self.k, self.channels)

    def forward(self, x, targets=None):
        """Returns (class capsule vectors, their norms, reconstruction).

        The decoder sees only the target capsule during training (``targets``
        given); otherwise the capsule with the largest norm.
        """
        x = Tensor._lift(x)
        if x.data.ndim == 3:
            x = x.reshape((1,) + x.data.shape)
        if x.data.shape[1:] != (self.w, self.k, self.channels):
            raise ValueError(
                f"input shape {x.data.shape[1:]} != ({self.w}, {self.k}, {self.channels})"
            )
        _, v = self._capsule_forward(x)
        norms = nn.capsule_norms(v, axis=-1)
        B = v.data.shape[0]
        mask = np.zeros((B, self.num_classes), dtype=v.data.dtype)
        chosen = (
            np.asarray(targets, dtype=int)
            if targets is not None
            else norms.data.argmax(axis=1)
        )
        mask[np.arange(B), chosen] = 1.0
        recon = self._decode(v, mask)
        return v, norms, recon

    def loss_batch(self, x, y, train: bool = True, rng=None):
        y = np.asarray(y, dtype=int)
        _, norms, recon = self.forward(x, targets=y if train else None)
        if self.loss_mode == "binary_ce":
            ml = nn.binary_margin_loss(norms, y)
        else:
            ml = nn.margin_loss(norms, y, lam=self.cfg.lam)
        mse = nn.reconstruction_loss(recon, Tensor._lift(x))
        loss = nn.total_loss(ml, mse, alpha=self.cfg.alpha)
        return loss, {"margin": ml.item(), "mse": mse.item()}

    def predict(self, x) -> np.ndarray:
        with no_grad():
            out = []
            for lo in range(0, len(x), 256):
                _, norms, _ = self.forward(x[lo : lo + 256])
                out.append(norms.data.argmax(axis=1))
        return np.concatenate(out)

    def inner_features(self, x) -> np.ndarray:
        """Flattened primary-capsule vectors (before any routing)."""
        with no_grad():
            out = []
            for lo in range(0, len(x), 256):
                u, _ = self._capsule_forward(Tensor(x[lo : lo + 256]))
                B = u.data.shape[0]
                out.append(u.data.reshape(B, -1).copy())
        return np.concatenate(out)


class PatchyCnn:
    """Patchy-San style baseline: field-aligned convolutions + dense softmax.

    The (w, k, channels) tensor is flattened to a (w*k, 1) strip; the first
    convolution has kernel k and stride k, so each output position sees
    exactly one receptive field.
    """

    def __init__(self, w: int, k: int, channels: int, num_classes: int,
                 cfg: CnnConfig, seed: int = 0):
        self.w, self.k, self.channels, self.num_classes = w, k, channels, num_classes
        self.cfg = cfg
        conv2_kernel = min(cfg.conv2_kernel, w)
        self.conv2_kernel = conv2_kernel
        conv2_out = w - conv2_kernel + 1
        self.flat_dim = conv2_out * cfg.conv2_filters

        rng = np.random.default_rng([seed, 0x636E])
        p = {}
        p["conv1_w"] = rng.normal(
            0.0, np.sqrt(2.0 / (k * channels)), (k, 1, channels, cfg.conv1_filters)
        )
        p["conv1_b"] = np.zeros(cfg.conv1_filters)
        p["conv2_w"] = rng.normal(
            0.0,
            np.sqrt(2.0 / (conv2_kernel * cfg.conv1_filters)),
            (conv2_kernel, 1, cfg.conv1_filters, cfg.conv2_filters),
        )
        p["conv2_b"] = np.zeros(cfg.conv2_filters)
        p["dense_w"] = rng.normal(0.0, np.sqrt(2.0 / self.flat_dim), (self.flat_dim, cfg.dense_width))
        p["dense_b"] = np.zeros(cfg.dense_width)
        p["out_w"] = rng.normal(0.0, np.sqrt(1.0 / cfg.dense_width), (cfg.dense_width, num_classes))
        p["out_b"] = np.zeros(num_classes)
        self.params = {name: Tensor(arr.astype(FLOAT), requires_grad=True)
                       for name, arr in p.items()}

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def _features(self, x: Tensor, train: bool = False, rng=None):
        p = self.params
        B = x.data.shape[0]
        strip = x.reshape(B, self.w * self.k, 1, self.channels)
        h = conv2d(strip, p["conv1_w"], p["conv1_b"], stride=(self.k, 1)).relu()
        h = conv2d(h, p["conv2_w"], p["conv2_b"], stride=(1, 1)).relu()
        h = h.reshape(B, self.flat_dim)
        h = (h @ p["dense_w"] + p["dense_b"]).relu()
        if train and self.cfg.dropout > 0.0:
            keep = 1.0 - self.cfg.dropout
            mask = (rng.random(h.data.shape) < keep).astype(h.data.dtype) / keep
            h = h * Tensor(mask)
        return h

    def logits(self, x, train: bool = False, rng=None) -> Tensor:
        x = Tensor._lift(x)
        if x.data.ndim == 3:
            x = x.reshape((1,) + x.data.shape)
        h = self._features(x, train=train, rng=rng)
        return h @ self.params["out_w"] + self.params["out_b"]

    def loss_batch(self, x, y, train: bool = True, rng=None):
        y = np.asarray(y, dtype=int)
        loss = nn.cross_entropy(self.logits(x, train=train, rng=rng), y)
        return loss, {"margin": loss.item(), "mse": 0.0}

    def predict(self, x) -> np.ndarray:
        with no_grad():
            out = []
            for lo in range(0, len(x), 512):
                out.append(self.logits(x[lo : lo + 512]).data.argmax(axis=1))
        return np.concatenate(out)

    def inner_features(self, x) -> np.ndarray:
        """Activations of the dense inner layer (no dropout)."""
        with no_grad():
            out = []
            for lo in range(0, len(x), 512):
                h = self._features(Tensor(x[lo : lo + 512]))
                out.append(h.data.copy())
        return np.concatenate(out)


def build_capsnet(w, k, channels, num_classes, cfg: CapsNetConfig | None = None, seed: int = 0):
    return CapsNet(w, k, channels, num_classes, cfg or CapsNetConfig(), seed=seed)


def build_cnn(w, k, channels, num_classes, cfg: CnnConfig | None = None, seed: int = 0):
    return PatchyCnn(w, k, channels, num_classes, cfg or CnnConfig(), seed=seed)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 50
    base_lr: float = 1e-3
    lr_decay: float = 0.0
    lr_floor: float = 1e-6
    seed: int = 0


@dataclass
class TrainResult:
    loss_trace: list = field(default_factory=list)  # per-epoch dicts
    seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1]["total"] if self.loss_trace else float("nan")


def train_model(model, x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Seeded mini-batch training with Adam.  Deterministic given the seed:
    the per-epoch shuffle, dropout masks and initialization all derive from
    seeded generators, so two runs produce identical parameters."""
    y = np.asarray(y, dtype=int)
    counts = np.bincount(y, minlength=model.num_classes)
    if counts.min() == 0:
        missing = int(np.argmin(counts))
        raise ValueError(f"training split has no sample of class {missing}")

    rng = np.random.default_rng([cfg.seed, 0x7261])
    state = nn.AdamState(base_lr=cfg.base_lr, decay=cfg.lr_decay, lr_floor=cfg.lr_floor)
    result = TrainResult()
    start = time.perf_counter()
    n = len(x)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_tot, epoch_margin, epoch_mse, batches = 0.0, 0.0, 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            loss, parts = model.loss_batch(x[idx], y[idx], train=True, rng=rng)
            total = loss.item()
            if not np.isfinite(total):
                raise nn.TrainingError(
                    f"non-finite loss {total} at epoch {epoch}, batch {batches}"
                )
            loss.backward()
            grads = {name: p.grad for name, p in model.params.items()}
            nn.adam_step(model.params, grads, state, epoch)
            for p in model.params.values():
                p.zero_grad()
            epoch_tot += total
            epoch_margin += parts["margin"]
            epoch_mse += parts["mse"]
            batches += 1
        result.loss_trace.append(
            {
                "epoch": epoch,
                "total": epoch_tot / batches,
                "margin": epoch_margin / batches,
                "mse": epoch_mse / batches,
                "seconds": time.perf_counter() - start,
            }
        )
    result.seconds = time.perf_counter() - start
    return result


def evaluate_accuracy(model, x, y) -> float:
    pred = model.predict(x)
    return float(np.mean(pred == np.asarray(y)))
