"""Model assembly: the graph capsule network and the Patchy-San style CNN
baseline (:data:`MODELS`), plus a deterministic mini-batch training loop.

Both keep one contract (:class:`_Classifier`): input is a batch of
``(w, k, d+1)`` tensors, a single tensor being a batch of one, checked in one
place at every entry point; any other shape raises ``ValueError``.
Inference runs in chunks without a tape and skips the capsule decoder.
Parameters are :data:`graphcaps.data.FLOAT` (float32), the one-hot tensors'
dtype, so training and inference run in float32; everything created inside a
step takes the dtype of the arrays it combines with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .autodiff import Tensor, conv2d, caps_predict, no_grad
from .data import FLOAT


class ConfigError(ValueError):
    """Model geometry that cannot be assembled as configured."""


# The classifiers a run can choose, and the names reports give them.
MODELS = {"capsules": "Capsules", "cnn": "CNN"}

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


def primary_grid(w: int, k: int, cfg: CapsNetConfig) -> tuple[int, int]:
    """The primary-capsule map's (rows, columns) for a ``w x k`` input, or
    :class:`ConfigError` if the two convolutions cannot take it; builds nothing."""
    h1, w1 = ((n - cfg.conv_kernel) // cfg.conv_stride + 1 for n in (w, k))
    if h1 < 1 or w1 < 1:
        raise ConfigError(
            f"conv layer needs input >= {cfg.conv_kernel}x{cfg.conv_kernel}, got {w}x{k}"
        )
    h2, w2 = ((n - cfg.primary_kernel) // cfg.primary_stride + 1 for n in (h1, w1))
    if h2 < 1 or w2 < 1:
        raise ConfigError(
            f"primary capsule conv cannot reshape {h1}x{w1}x{cfg.conv_filters} "
            f"with kernel {cfg.primary_kernel} stride {cfg.primary_stride}"
        )
    return h2, w2


class _Classifier:
    """The contract :class:`CapsNet` and :class:`PatchyCnn` share: the input
    boundary, the parameter dict and chunked inference."""

    _chunk = 256  # graphs per inference chunk: bounds what a predict call holds

    def __init__(self, w: int, k: int, channels: int, num_classes: int, cfg, draws: dict):
        """``draws``, the seeded float64 initial weights, become :data:`FLOAT` leaves."""
        self.w, self.k, self.channels, self.num_classes = w, k, channels, num_classes
        self.cfg = cfg
        self.params = {name: Tensor(arr.astype(FLOAT), requires_grad=True)
                       for name, arr in draws.items()}

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def _batch(self, x) -> Tensor:
        """``x`` as a ``(B, w, k, channels)`` Tensor in its own dtype."""
        x = Tensor._lift(x)
        if x.data.ndim == 3:
            x = x.reshape((1,) + x.data.shape)
        if x.data.shape[1:] != (self.w, self.k, self.channels):
            raise ValueError(
                f"input shape {x.data.shape[1:]} != ({self.w}, {self.k}, {self.channels})"
            )
        return x

    def _infer(self, x, fn) -> np.ndarray:
        """``fn`` of each chunk of the batch ``x``, without a tape, concatenated."""
        x = self._batch(x).data
        with no_grad():
            return np.concatenate([fn(Tensor(x[lo : lo + self._chunk]))
                                   for lo in range(0, len(x), self._chunk)])


class CapsNet(_Classifier):
    """conv -> primary capsules -> class capsules (routing) -> decoder."""

    def __init__(self, w: int, k: int, channels: int, num_classes: int,
                 cfg: CapsNetConfig, seed: int = 0):
        self.loss_mode = cfg.resolve_loss_mode(num_classes)
        h2, w2 = self.primary_spatial = primary_grid(w, k, cfg)
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
        super().__init__(w, k, channels, num_classes, cfg, p)

    def _primary_capsules(self, x: Tensor) -> Tensor:
        cfg, p = self.cfg, self.params
        h = conv2d(x, p["conv1_w"], p["conv1_b"], stride=cfg.conv_stride).relu()
        h = conv2d(h, p["conv2_w"], p["conv2_b"], stride=cfg.primary_stride)
        return nn.squash(h.reshape(h.data.shape[0], self.n_primary, cfg.primary_dim))

    def _capsule_forward(self, x: Tensor) -> Tensor:
        """The class capsules of the batch ``x``."""
        u_hat = caps_predict(self._primary_capsules(x), self.params["caps_w"])
        return nn.dynamic_routing(u_hat, self.cfg.routing_iters)

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
        v = self._capsule_forward(self._batch(x))
        norms = nn.capsule_norms(v, axis=-1)
        B = v.data.shape[0]
        mask = np.zeros((B, self.num_classes), dtype=v.data.dtype)
        chosen = norms.data.argmax(axis=1) if targets is None else np.asarray(targets, dtype=int)
        mask[np.arange(B), chosen] = 1.0
        recon = self._decode(v, mask)
        return v, norms, recon

    def loss_batch(self, x, y, train: bool = True, rng=None):
        x = self._batch(x)
        y = np.asarray(y, dtype=int)
        _, norms, recon = self.forward(x, targets=y if train else None)
        if self.loss_mode == "binary_ce":
            ml = nn.binary_margin_loss(norms, y)
        else:
            ml = nn.margin_loss(norms, y, lam=self.cfg.lam)
        mse = nn.reconstruction_loss(recon, x)
        loss = nn.total_loss(ml, mse, alpha=self.cfg.alpha)
        return loss, {"margin": ml.item(), "mse": mse.item()}

    def predict(self, x) -> np.ndarray:
        """The class whose capsule has the largest norm; the decoder does not run."""
        return self._infer(x, lambda xb: nn.capsule_norms(self._capsule_forward(xb))
                           .data.argmax(axis=1))

    def inner_features(self, x) -> np.ndarray:
        """Flattened primary-capsule vectors (before any routing)."""
        return self._infer(x, lambda xb: self._primary_capsules(xb).data
                           .reshape(xb.data.shape[0], -1))


class PatchyCnn(_Classifier):
    """Patchy-San style baseline: field-aligned convolutions + dense softmax.

    The (w, k, channels) tensor is flattened to a (w*k, 1) strip; the first
    convolution has kernel k and stride k, so each output position sees
    exactly one receptive field.
    """

    def __init__(self, w: int, k: int, channels: int, num_classes: int,
                 cfg: CnnConfig, seed: int = 0):
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
        super().__init__(w, k, channels, num_classes, cfg, p)

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
        h = self._features(self._batch(x), train=train, rng=rng)
        return h @ self.params["out_w"] + self.params["out_b"]

    def loss_batch(self, x, y, train: bool = True, rng=None):
        y = np.asarray(y, dtype=int)
        loss = nn.cross_entropy(self.logits(x, train=train, rng=rng), y)
        return loss, {"margin": loss.item(), "mse": 0.0}

    def predict(self, x) -> np.ndarray:
        return self._infer(x, lambda xb: self.logits(xb).data.argmax(axis=1))

    def inner_features(self, x) -> np.ndarray:
        """Activations of the dense inner layer (no dropout)."""
        return self._infer(x, lambda xb: self._features(xb).data)


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
