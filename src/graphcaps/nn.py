"""Capsule primitives, losses, and the Adam optimizer.

Everything operates on :class:`graphcaps.autodiff.Tensor`, so gradients flow
through routing iterations, squashing and the losses without special cases.
Plain numpy arrays are accepted and lifted to constants.  Routing and the
classification losses take a batch only: (B, n_in, n_out, d) predictions and
(B, C) scores.  The arrays these functions create (routing logits, loss
targets) take the dtype of their input, so a float32 model trains in float32
throughout.

Adam updates one parameter at a time (:func:`adam_update`).
:func:`adam_step` applies that update to every parameter of a dict of
gradients; training applies it to each parameter inside the backward walk,
as soon as that parameter's gradient is final, so the gradients of a step
never all exist at once.  Both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import NORM_EPS, Tensor

# The margins of the margin loss (Sabour et al. 2017): a present class's
# capsule should be at least M_PLUS long, an absent class's at most M_MINUS.
M_PLUS, M_MINUS = 0.9, 0.1

# Adam's constants (Kingma & Ba 2015), and the floor of the decayed step size.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LR_FLOOR = 0.9, 0.999, 1e-8, 1e-6


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
    return autodiff.squash_op(v)


def dynamic_routing(predictions, iterations: int) -> Tensor:
    """Routing-by-agreement between two capsule layers.

    ``predictions`` is (B, n_in, n_out, d_out).  Logits start at zero; each
    round couples by softmax over the output capsules, forms weighted
    prediction sums, squashes, and (on all but the last round) adds the
    prediction/output agreement back onto the logits.  The rounds run as one
    op, :func:`graphcaps.autodiff.routing`, which also returns the couplings.

    Returns the (B, n_out, d_out) output capsules.
    """
    return autodiff.routing(predictions, iterations)[0]


def _one_hot_targets(scores: Tensor, target) -> np.ndarray:
    """(B, C) indicator of each sample's ``target`` class, in the dtype of
    the (B, C) ``scores``."""
    if scores.data.ndim != 2:
        raise ValueError(f"expected a (B, C) batch, got shape {scores.data.shape}")
    t = np.zeros_like(scores.data)
    t[np.arange(len(t)), np.asarray(target, dtype=int)] = 1.0
    return t


def margin_loss(norms, target, lam: float = 0.5) -> Tensor:
    """Per-class hinge-squared loss on (B, C) capsule norms, averaged over the
    batch:

    sum_k [ T_k * max(0, M_PLUS - |v_k|)^2 + lam * (1 - T_k) * max(0, |v_k| - M_MINUS)^2 ]
    """
    norms = Tensor._lift(norms)
    t = _one_hot_targets(norms, target)
    present = (M_PLUS - norms).relu() ** 2
    absent = (norms - M_MINUS).relu() ** 2
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
    t: int = field(default=0, init=False)
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)

    def effective_lr(self, epoch: int) -> float:
        return max(self.base_lr * float(np.exp(-self.decay * epoch)), LR_FLOOR)


# Elements per Adam slice: a slice of a parameter, its moments, its gradient and
# the two scratch arrays stay in cache across the dozen passes of an update.
_ADAM_SLICE = 1 << 15


def _adam_slices(p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray):
    """Matching flat views of at most ``_ADAM_SLICE`` elements of a
    C-contiguous parameter, its moments and its gradient, each with two
    scratch arrays of ``p``'s dtype."""
    p, m, v, g = (a.reshape(-1) for a in (p, m, v, g))
    scratch = np.empty((2, min(p.size, _ADAM_SLICE)), p.dtype)
    for lo in range(0, p.size, _ADAM_SLICE):
        hi = min(lo + _ADAM_SLICE, p.size)
        yield p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi], scratch[0, : hi - lo], scratch[1, : hi - lo]


def adam_step(params: dict, grads: dict, state: AdamState, epoch: int) -> AdamState:
    """One bias-corrected Adam update of every parameter in ``params`` by
    :func:`adam_update`, in place on ``params`` and the moments; a parameter
    missing from ``grads`` is updated with a zero gradient.

    The step size decays exponentially with the epoch index and is floored at
    :data:`LR_FLOOR`.
    """
    lr = state.effective_lr(epoch)
    state.t += 1
    for name, p in params.items():
        adam_update(name, p, grads.get(name), state, lr)
    return state


def adam_update(name: str, p: Tensor, g, state: AdamState, lr: float) -> None:
    """Adam's update, with :data:`ADAM_BETA1`, :data:`ADAM_BETA2` and
    :data:`ADAM_EPS`, of the parameter ``p`` named ``name`` by its gradient
    ``g`` (None: zero), at the step count ``state.t`` and the step size
    ``lr``, in place on ``p`` and its moments.  It runs a cache-sized slice at
    a time through two slice-sized scratch arrays; every element goes through
    the same operations in the same order as in a whole-parameter update, so
    the result does not depend on the slicing.

    The moments are kept in the parameter's dtype; a gradient of a wider
    dtype is accepted and rounded into them.

    Raises :class:`TrainingError` naming the parameter if any of its gradient
    is non-finite, and ``ValueError`` naming it if its gradient has another
    shape or the parameter is not C-contiguous (every model parameter is),
    before any slice of it changes.
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    if g is None:
        g = np.zeros_like(p.data)
    if not np.all(np.isfinite(g)):
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    if g.shape != p.data.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter {name!r} {p.data.shape}")
    if not p.data.flags.c_contiguous:
        raise ValueError(f"parameter {name!r} is not C-contiguous")
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
        denom += ADAM_EPS
        np.multiply(np.divide(m, bc1, out=step), lr, out=step)
        ps -= np.divide(step, denom, out=step)
