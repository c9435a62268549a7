"""Model assembly: the graph capsule network and the Patchy-San style CNN
baseline (:data:`MODELS`), plus a deterministic mini-batch training loop.

Both keep one contract (:class:`_Classifier`): input is a batch of
``(w, k, d+1)`` tensors, and only a batch, checked in one place at every entry
point; any other shape, one unbatched tensor included, raises ``ValueError``.
Inference runs in chunks without a tape and skips the capsule decoder.  A
chunk holds as many graphs as fit their convolution patches in
:data:`CHUNK_BYTES`, and at most :data:`MAX_CHUNK`, whatever the model's
size, so a ``predict`` call holds less than a training step at the
benchmark shapes.
Parameters are :data:`FLOAT` (float32), drawn a block of rows at a time from
their seeded generator, and each batch or inference chunk is cast to their
dtype as it enters, so uint8 one-hot tensors run in float32; everything
created inside a step takes the dtype of the arrays it combines with.

Training applies Adam to each parameter from inside the backward walk, as
soon as its gradient is final (:func:`train_model`), with the bits of a
whole-step :func:`graphcaps.nn.adam_step`.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .autodiff import Tensor, conv2d, caps_predict, no_grad

# The dtype of the model parameters, and so of every step: exact for one-hot
# input, and half the bytes and BLAS time of float64.
FLOAT = np.float32

# Bytes of convolution patches an inference chunk may gather, and the most
# graphs it may hold: a paper-preset MUTAG-shaped chunk holds 27 graphs and
# gathers about half of what a training batch of 50 does.  The capsule
# network gave the same bits at every chunk of 4 to 256 graphs tried at the
# MUTAG and NCI1 shapes; the CNN's last bits may differ, and its chunk is
# MAX_CHUNK at those shapes.
CHUNK_BYTES, MAX_CHUNK = 6 << 20, 256

# glibc's mallopt, where the C library has one.
try:
    _MALLOPT = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    _MALLOPT = None
# mallopt's parameters: free heap kept at the top, and the size from which an
# allocation gets its own mapping (32 MiB, the most glibc accepts)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_pages() -> None:
    """Have the C allocator keep freed memory for reuse: arrays under 32 MiB
    come from the heap, and the heap is not given back to the system.  A
    training step frees its buffers as its backward walks and makes the same
    ones again the next step; by default glibc gives many of them back and
    faults them in again, about 1600 page faults and 2-3 ms of system time in
    a 13 ms small-preset MUTAG-shaped step.  The peak resident size stays
    what a step holds, and the process keeps it until it exits."""
    if _MALLOPT is not None:
        _MALLOPT(_M_TRIM_THRESHOLD, 1 << 30)
        _MALLOPT(_M_MMAP_THRESHOLD, 32 << 20)


# float64 values per block of drawn initial weights: each block is cast to
# FLOAT as it is drawn, so no whole float64 copy of a parameter is made.
_DRAW_BLOCK = 1 << 17


def _normal(rng, std: float, shape: tuple) -> np.ndarray:
    """``rng.normal(0, std, shape).astype(FLOAT)`` drawn a block of rows at a
    time: the generator yields the same values in blocks as at once."""
    out = np.empty(shape, FLOAT)
    rows = out.reshape(shape[0], -1)
    step = max(1, _DRAW_BLOCK // rows.shape[1])
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        block[...] = rng.normal(0.0, std, block.shape)
    return out


def _patch_bytes(h: int, w: int, fh: int, fw: int, cin: int, stride) -> int:
    """Bytes of the :data:`FLOAT` patches one graph's ``h x w x cin`` map
    gathers for an ``fh x fw`` convolution of stride ``(sh, sw)``."""
    sh, sw = stride
    return ((h - fh) // sh + 1) * ((w - fw) // sw + 1) * fh * fw * cin * FLOAT().itemsize


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

    def __init__(self, w: int, k: int, channels: int, num_classes: int, cfg, draws: dict,
                 patch_bytes: int):
        """``draws``, the seeded :data:`FLOAT` initial weights, become leaves;
        ``patch_bytes``, what one graph's convolutions gather, sizes the
        inference chunk."""
        self.w, self.k, self.channels, self.num_classes = w, k, channels, num_classes
        self.cfg = cfg
        self.params = {name: Tensor(arr, requires_grad=True) for name, arr in draws.items()}
        # graphs per inference chunk: bounds what a predict call holds
        self._chunk = min(MAX_CHUNK, max(1, CHUNK_BYTES // patch_bytes))

    def _checked(self, x) -> np.ndarray:
        """``x``, a Tensor or an array, as the array of a ``(B, w, k, channels)`` batch."""
        x = x.data if isinstance(x, Tensor) else np.asarray(x)
        if x.shape[1:] != (self.w, self.k, self.channels):
            raise ValueError(
                f"input shape {x.shape[1:]} != ({self.w}, {self.k}, {self.channels})"
            )
        return x

    def _batch(self, x) -> Tensor:
        """The batch ``x`` as a Tensor at the parameters' dtype: the one cast of
        a model's input, so uint8 one-hot tensors run in float32."""
        return Tensor(self._checked(x).astype(self.params["conv1_w"].data.dtype, copy=False))

    def _infer(self, x, fn) -> np.ndarray:
        """``fn`` of each chunk of the batch ``x``, without a tape, concatenated;
        only one chunk at a time is cast to the parameters' dtype."""
        x = self._checked(x)
        with no_grad():
            return np.concatenate([fn(self._batch(x[lo : lo + self._chunk]))
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
        p["conv1_w"] = _normal(rng, np.sqrt(2.0 / (ck * ck * channels)), (ck, ck, channels, cs))
        p["conv1_b"] = np.zeros(cs, FLOAT)
        pk = cfg.primary_kernel
        pc_out = cfg.primary_channels * cfg.primary_dim
        p["conv2_w"] = _normal(rng, np.sqrt(2.0 / (pk * pk * cs)), (pk, pk, cs, pc_out))
        p["conv2_b"] = np.zeros(pc_out, FLOAT)
        # scale so routed pre-squash sums start near unit norm regardless of
        # how many primary capsules feed each class capsule
        caps_std = 2.0 / np.sqrt(self.n_primary * cfg.primary_dim)
        p["caps_w"] = _normal(
            rng, caps_std, (self.n_primary, num_classes, cfg.primary_dim, cfg.caps_dim)
        )
        widths = [num_classes * cfg.caps_dim, *cfg.decoder_hidden, self.recon_dim]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:]), start=1):
            scale = np.sqrt(2.0 / fan_in) if i < len(widths) - 1 else np.sqrt(1.0 / fan_in)
            p[f"dec{i}_w"] = _normal(rng, scale, (fan_in, fan_out))
            p[f"dec{i}_b"] = np.zeros(fan_out, FLOAT)
        h1, w1 = ((n - ck) // cfg.conv_stride + 1 for n in (w, k))
        patches = (_patch_bytes(w, k, ck, ck, channels, (cfg.conv_stride,) * 2)
                   + _patch_bytes(h1, w1, pk, pk, cs, (cfg.primary_stride,) * 2))
        super().__init__(w, k, channels, num_classes, cfg, p, patches)

    def _primary_capsules(self, x: Tensor) -> Tensor:
        cfg, p = self.cfg, self.params
        h = conv2d(x, p["conv1_w"], p["conv1_b"], stride=cfg.conv_stride, relu=True)
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

    def forward(self, x, targets):
        """Returns (class capsule vectors, their norms, reconstruction) of the
        batch ``x``.  The decoder sees only the capsule of each sample's
        target class (Sabour et al. 2017); inference runs through
        :meth:`predict`, which skips the decoder.
        """
        v = self._capsule_forward(self._batch(x))
        norms = nn.capsule_norms(v)
        B = v.data.shape[0]
        mask = np.zeros((B, self.num_classes), dtype=v.data.dtype)
        mask[np.arange(B), np.asarray(targets, dtype=int)] = 1.0
        recon = self._decode(v, mask)
        return v, norms, recon

    def loss_batch(self, x, y, rng=None):
        x = self._batch(x)
        y = np.asarray(y, dtype=int)
        _, norms, recon = self.forward(x, y)
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
        p["conv1_w"] = _normal(
            rng, np.sqrt(2.0 / (k * channels)), (k, 1, channels, cfg.conv1_filters)
        )
        p["conv1_b"] = np.zeros(cfg.conv1_filters, FLOAT)
        p["conv2_w"] = _normal(
            rng,
            np.sqrt(2.0 / (conv2_kernel * cfg.conv1_filters)),
            (conv2_kernel, 1, cfg.conv1_filters, cfg.conv2_filters),
        )
        p["conv2_b"] = np.zeros(cfg.conv2_filters, FLOAT)
        p["dense_w"] = _normal(rng, np.sqrt(2.0 / self.flat_dim), (self.flat_dim, cfg.dense_width))
        p["dense_b"] = np.zeros(cfg.dense_width, FLOAT)
        p["out_w"] = _normal(rng, np.sqrt(1.0 / cfg.dense_width), (cfg.dense_width, num_classes))
        p["out_b"] = np.zeros(num_classes, FLOAT)
        # conv1's windows tile the strip in order, so its patches are the
        # strip itself and only conv2 gathers a copy
        patches = _patch_bytes(w, 1, conv2_kernel, 1, cfg.conv1_filters, (1, 1))
        super().__init__(w, k, channels, num_classes, cfg, p, patches)

    def _features(self, x: Tensor, train: bool = False, rng=None):
        p = self.params
        B = x.data.shape[0]
        strip = x.reshape(B, self.w * self.k, 1, self.channels)
        h = conv2d(strip, p["conv1_w"], p["conv1_b"], stride=(self.k, 1), relu=True)
        h = conv2d(h, p["conv2_w"], p["conv2_b"], stride=(1, 1), relu=True)
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

    def loss_batch(self, x, y, rng=None):
        y = np.asarray(y, dtype=int)
        loss = nn.cross_entropy(self.logits(x, train=True, rng=rng), y)
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
    seed: int = 0

    def __post_init__(self):
        # a NaN rate would train to NaN weights, and a negative one at the floor
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not (math.isfinite(self.lr_decay) and self.lr_decay >= 0):
            raise ValueError(f"lr_decay must be finite and >= 0, got {self.lr_decay}")


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
    seeded generators, so two runs produce identical parameters.

    Each parameter is updated by :func:`graphcaps.nn.adam_update` from the
    backward walk as soon as its gradient is final, and the gradient is
    dropped there; a parameter the loss does not reach is updated with a zero
    gradient after the walk.  The parameters come out bit for bit as a whole
    backward followed by :func:`graphcaps.nn.adam_step` leaves them.  A
    non-finite loss or gradient raises :class:`graphcaps.nn.TrainingError`
    naming the epoch and the batch."""
    y = np.asarray(y, dtype=int)
    counts = np.bincount(y, minlength=model.num_classes)
    if counts.min() == 0:
        missing = int(np.argmin(counts))
        raise ValueError(f"training split has no sample of class {missing}")

    _keep_freed_pages()
    rng = np.random.default_rng([cfg.seed, 0x7261])
    state = nn.AdamState(base_lr=cfg.base_lr, decay=cfg.lr_decay)
    names = {id(p): name for name, p in model.params.items()}
    result = TrainResult()
    start = time.perf_counter()
    n = len(x)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_tot, epoch_margin, epoch_mse, batches = 0.0, 0.0, 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            loss, parts = model.loss_batch(x[idx], y[idx], rng=rng)
            total = loss.item()
            if not np.isfinite(total):
                raise nn.TrainingError(
                    f"non-finite loss {total} at epoch {epoch}, batch {batches}"
                )
            lr = state.effective_lr(epoch)
            state.t += 1
            pending = dict(model.params)  # the parameters not updated yet this step

            def update(leaf):
                name = names[id(leaf)]
                nn.adam_update(name, pending.pop(name), leaf.grad, state, lr)
                leaf.grad = None

            try:
                loss.backward(on_leaf=update)
                for name, p in pending.items():
                    nn.adam_update(name, p, None, state, lr)
            except nn.TrainingError as exc:
                raise nn.TrainingError(f"{exc} at epoch {epoch}, batch {batches}") from None
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
