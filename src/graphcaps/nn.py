"""Capsule primitives, losses, and the Adam optimizer.

Everything operates on :class:`graphcaps.autodiff.Tensor`, so gradients flow
through routing iterations, squashing and the losses without special cases.
Plain numpy arrays are accepted and lifted to constants.  Routing and the
classification losses take a batch only: (B, n_in, n_out, d) predictions and
(B, C) scores.  The arrays these functions create (routing logits, loss
targets) take the dtype of their input, so a float32 model trains in float32
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Tensor

# Stabilizer added inside the norm square root; keeps squash and capsule norms
# differentiable at the zero vector.  Included in all gradient checks.
NORM_EPS = 1e-9


class TrainingError(RuntimeError):
    """Raised when training hits a non-finite loss or gradient."""


def capsule_norms(v) -> Tensor:
    """Vector norms along the last axis with an epsilon-stabilized sqrt."""
    v = Tensor._lift(v)
    return ((v * v).sum(axis=-1) + NORM_EPS).sqrt()


def squash(v) -> Tensor:
    """Shrink vectors along the last axis to norm |v|^2 / (1 + |v|^2) without
    changing direction.

    The norm in the denominator uses the epsilon-stabilized sqrt, so the map
    (and its gradient) is well defined at the zero vector, where it returns 0.
    """
    return autodiff.squash_op(v, eps=NORM_EPS)


def dynamic_routing(predictions, iterations: int) -> Tensor:
    """Routing-by-agreement between two capsule layers.

    ``predictions`` is (B, n_in, n_out, d_out).  Logits start at zero; each
    round couples by softmax over the output capsules, forms weighted
    prediction sums, squashes, and (on all but the last round) adds the
    prediction/output agreement back onto the logits.  The rounds run as one
    op, :func:`graphcaps.autodiff.routing`, which also returns the couplings.

    Returns the (B, n_out, d_out) output capsules.
    """
    return autodiff.routing(predictions, iterations, eps=NORM_EPS)[0]


def _one_hot_targets(scores: Tensor, target) -> np.ndarray:
    """(B, C) indicator of each sample's ``target`` class, in the dtype of
    the (B, C) ``scores``."""
    if scores.data.ndim != 2:
        raise ValueError(f"expected a (B, C) batch, got shape {scores.data.shape}")
    t = np.zeros_like(scores.data)
    t[np.arange(len(t)), np.asarray(target, dtype=int)] = 1.0
    return t


def margin_loss(norms, target, lam: float = 0.5, m_plus: float = 0.9, m_minus: float = 0.1) -> Tensor:
    """Per-class hinge-squared loss on (B, C) capsule norms, averaged over the
    batch:

    sum_k [ T_k * max(0, m+ - |v_k|)^2 + lam * (1 - T_k) * max(0, |v_k| - m-)^2 ]
    """
    norms = Tensor._lift(norms)
    t = _one_hot_targets(norms, target)
    present = (m_plus - norms).relu() ** 2
    absent = (norms - m_minus).relu() ** 2
    per_class = Tensor(t) * present + Tensor(lam * (1.0 - t)) * absent
    return per_class.sum(axis=-1).mean()


def binary_margin_loss(norms, target) -> Tensor:
    """Cross-entropy over a softmax of the two capsule norms of each sample of
    a (B, 2) batch.  Only defined for exactly two classes."""
    norms = Tensor._lift(norms)
    C = norms.data.shape[-1]
    if C != 2:
        raise ValueError(f"binary loss requires exactly 2 classes, got {C}")
    return cross_entropy(norms, target)


def cross_entropy(logits, target) -> Tensor:
    """Mean negative log softmax-probability of the target class over a
    (B, C) batch of logits."""
    logits = Tensor._lift(logits)
    t = _one_hot_targets(logits, target)
    # log-sum-exp with a detached shift: a constant offset does not change the result
    shift = logits.data.max(axis=-1, keepdims=True)
    lse = ((logits - shift).exp().sum(axis=-1, keepdims=True)).log() + Tensor(shift)
    return ((lse - logits) * Tensor(t)).sum(axis=-1).mean()


def reconstruction_loss(reconstructed, original) -> Tensor:
    """Mean squared difference over all elements."""
    reconstructed = Tensor._lift(reconstructed)
    original = Tensor._lift(original)
    if reconstructed.data.shape != original.data.shape:
        raise ValueError(
            f"shape mismatch: {reconstructed.data.shape} vs {original.data.shape}"
        )
    diff = reconstructed - original
    return (diff * diff).mean()


def total_loss(ml, mse, alpha: float = 1.0) -> Tensor:
    """Combined objective: margin (or cross-entropy) term plus scaled
    reconstruction term."""
    return Tensor._lift(ml) + Tensor._lift(mse) * alpha


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    base_lr: float
    decay: float = 0.0
    lr_floor: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def effective_lr(self, epoch: int) -> float:
        return max(self.base_lr * float(np.exp(-self.decay * epoch)), self.lr_floor)


# Elements per Adam slice: a slice of a parameter, its moments, its gradient and
# the two scratch arrays stay in cache across the dozen passes of an update.
_ADAM_SLICE = 1 << 15


def _adam_slices(p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray):
    """Matching views of at most ``_ADAM_SLICE`` elements of a parameter, its
    moments and its gradient, each with two scratch arrays of ``p``'s dtype.
    The slices are flat views when the parameter and moments are C-contiguous
    (every model parameter is); other layouts are updated whole."""
    if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
        yield p, m, v, g, np.empty_like(p), np.empty_like(p)
        return
    p, m, v, g = (a.reshape(-1) for a in (p, m, v, g))
    scratch = np.empty((2, min(p.size, _ADAM_SLICE)), p.dtype)
    for lo in range(0, p.size, _ADAM_SLICE):
        hi = min(lo + _ADAM_SLICE, p.size)
        yield p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi], scratch[0, : hi - lo], scratch[1, : hi - lo]


def adam_step(params: dict, grads: dict, state: AdamState, epoch: int) -> AdamState:
    """One bias-corrected Adam update, in place on ``params`` and the moments,
    a cache-sized slice at a time through two slice-sized scratch arrays.
    Every element goes through the same operations in the same order as in
    a whole-parameter update, so the result does not depend on the slicing.

    The moments are kept in each parameter's dtype; a gradient of a wider
    dtype is accepted and rounded into them.

    The step size decays exponentially with the epoch index and is floored at
    ``state.lr_floor``.  Raises :class:`TrainingError` naming the parameter if
    any gradient is non-finite, before any slice of that parameter changes.
    """
    lr = state.effective_lr(epoch)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name!r} {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in this order, in place
        for ps, m, v, gs, step, denom in _adam_slices(p.data, state.m[name], state.v[name], g):
            m *= b1
            m += np.multiply(gs, 1.0 - b1, out=step)
            v *= b2
            v += np.multiply(np.multiply(gs, gs, out=step), 1.0 - b2, out=step)
            np.sqrt(np.divide(v, bc2, out=denom), out=denom)
            denom += state.eps
            np.multiply(np.divide(m, bc1, out=step), lr, out=step)
            ps -= np.divide(step, denom, out=step)
    return state
