"""Representation analysis: embedding extraction, exact t-SNE, cluster
distances.

The t-SNE here is the exact O(m^2) formulation: per-point Gaussian bandwidths
found by binary search on the conditional-distribution entropy, symmetrized
joint probabilities, Student-t low-dimensional kernel, gradient descent with
momentum, adaptive gains and early exaggeration.  Benchmark-sized inputs
(about a thousand points) are well within exact range.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import CapsNet, PatchyCnn


class EmbeddingSource(str, Enum):
    RAW_TENSOR = "raw"
    CNN_INNER = "cnn"
    PRIMARY_CAPS = "caps"


def extract_embeddings(model, tensors: np.ndarray, source: EmbeddingSource) -> np.ndarray:
    """Per-graph ``(m, D)`` feature vectors from the requested layer.

    ``raw`` flattens the input tensors (no model needed) to float64; ``cnn``
    reads the dense inner layer of the CNN baseline; ``caps`` reads the
    flattened primary-capsule vectors before any routing.  A model reads the
    tensors at its parameters' dtype, so a float32 model runs in float32.
    """
    source = EmbeddingSource(source)
    if source is EmbeddingSource.RAW_TENSOR:
        return np.asarray(tensors, dtype=np.float64).reshape(len(tensors), -1).copy()
    if source is EmbeddingSource.CNN_INNER and not isinstance(model, PatchyCnn):
        raise ValueError(f"source 'cnn' needs the CNN baseline, got {type(model).__name__}")
    if source is EmbeddingSource.PRIMARY_CAPS and not isinstance(model, CapsNet):
        raise ValueError(f"source 'caps' needs the capsule model, got {type(model).__name__}")
    return model.inner_features(np.asarray(tensors, dtype=model.params["conv1_w"].data.dtype))


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _entropy_and_probs(d2_row: np.ndarray, beta: float):
    """Shannon entropy (nats) and probabilities of one conditional
    distribution p_{j|i} at precision beta = 1/(2 sigma^2)."""
    p = np.exp(-d2_row * beta)
    s = p.sum()
    if s <= 0.0:
        return 0.0, np.zeros_like(p)
    p /= s
    nz = p > 0
    h = float(-(p[nz] * np.log(p[nz])).sum())
    return h, p


def perplexity_search(d2: np.ndarray, perplexity: float, tol: float = 1e-4,
                      max_steps: int = 100):
    """Per-point binary search for the Gaussian precisions matching the
    target perplexity within ``tol`` on the entropy scale.

    Returns (conditional probability matrix with zero diagonal, betas).
    """
    m = d2.shape[0]
    target = float(np.log(perplexity))
    P = np.zeros((m, m))
    betas = np.ones(m)
    for i in range(m):
        row = np.delete(d2[i], i)
        if row.max() <= 0.0:
            raise ValueError(
                f"point {i} has zero distance to all others; "
                "t-SNE rejects zero-variance input"
            )
        beta, lo, hi = 1.0, 0.0, np.inf
        h, p = _entropy_and_probs(row, beta)
        for _ in range(max_steps):
            if abs(h - target) <= tol:
                break
            if h > target:  # entropy too high -> narrow the kernel
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else (beta + lo) / 2.0
            h, p = _entropy_and_probs(row, beta)
        betas[i] = beta
        P[i, :i] = p[:i]
        P[i, i + 1 :] = p[i:]
    return P, betas


def _check_perplexity(perplexity: float, m: int) -> None:
    if not 1.0 < perplexity < m:
        raise ValueError(f"perplexity must lie in (1, {m}), got {perplexity}")


def joint_probabilities(points: np.ndarray, perplexity: float, tol: float = 1e-4) -> np.ndarray:
    """Symmetrized, normalized t-SNE joint distribution P (zero diagonal)."""
    m = len(points)
    _check_perplexity(perplexity, m)
    d2 = _pairwise_sq_dists(points)
    cond, _ = perplexity_search(d2, perplexity, tol=tol)
    P = (cond + cond.T) / (2.0 * m)
    return np.maximum(P, 1e-300)


def _low_dim_q(y: np.ndarray):
    num = 1.0 / (1.0 + _pairwise_sq_dists(y))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, 1e-300), num


def kl_divergence(P: np.ndarray, y: np.ndarray) -> float:
    q, _ = _low_dim_q(y)
    mask = ~np.eye(len(y), dtype=bool)
    return float((P[mask] * np.log(P[mask] / q[mask])).sum())


@dataclass
class TsneResult:
    coords: np.ndarray
    kl_initial: float
    kl_final: float
    perplexity: float
    iterations: int
    seed: int


def tsne(points: np.ndarray, perplexity: float, out_dims: int = 2, iters: int = 1000,
         seed: int = 0, learning_rate: float | None = None, early_exaggeration: float = 12.0,
         exaggeration_iters: int = 250, momentum_switch: int = 250) -> TsneResult:
    """Exact t-SNE to ``out_dims`` dimensions.

    ``learning_rate=None`` uses the size-scaled rate max(m / exaggeration / 4,
    50), which stays stable from tens to thousands of points.  KL divergences
    are reported against the true (non-exaggerated) P, at the seeded initial
    layout and at the final one.
    """
    points = np.asarray(points, dtype=np.float64)
    P = joint_probabilities(points, perplexity)
    m = len(points)
    if learning_rate is None:
        learning_rate = max(m / early_exaggeration / 4.0, 50.0)
    rng = np.random.default_rng([seed, 0x74736E65])
    y = rng.normal(0.0, 1e-4, (m, out_dims))
    kl_initial = kl_divergence(P, y)

    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    for it in range(iters):
        p_eff = P * early_exaggeration if it < exaggeration_iters else P
        q, num = _low_dim_q(y)
        pq = (p_eff - q) * num
        grad = 4.0 * (pq.sum(axis=1, keepdims=True) * y - pq @ y)
        momentum = 0.5 if it < momentum_switch else 0.8
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

    return TsneResult(
        coords=y,
        kl_initial=kl_initial,
        kl_final=kl_divergence(P, y),
        perplexity=perplexity,
        iterations=iters,
        seed=seed,
    )


@dataclass
class ClusterDistances:
    intra: dict  # class -> mean squared distance to class centroid
    intra_pooled: float  # over all points, to their own centroid
    inter: float  # distance between class centroids (mean over pairs)


def cluster_distances(points: np.ndarray, labels) -> ClusterDistances:
    """Separation statistics of a labelled 2-D (or any-D) embedding."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("cluster distances need at least two classes")
    centroids = {}
    intra = {}
    sq_to_own = np.zeros(len(points))
    for c in classes:
        members = labels == c
        if not members.any():
            raise ValueError(f"class {c} is empty")
        mu = points[members].mean(axis=0)
        centroids[c] = mu
        sq = ((points[members] - mu) ** 2).sum(axis=1)
        intra[int(c)] = float(sq.mean())
        sq_to_own[members] = sq
    pairs = [
        float(np.linalg.norm(centroids[a] - centroids[b]))
        for i, a in enumerate(classes)
        for b in classes[i + 1 :]
    ]
    return ClusterDistances(
        intra=intra,
        intra_pooled=float(sq_to_own.mean()),
        inter=float(np.mean(pairs)),
    )


def write_embeddings_csv(path: str, coords: np.ndarray, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["graph", "class", "x", "y"])
        for i, ((x, y), c) in enumerate(zip(coords, labels)):
            writer.writerow([i, int(c), f"{x:.8f}", f"{y:.8f}"])


def write_distances_csv(path: str, source: EmbeddingSource, dist: ClusterDistances) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "measure", "class", "value"])
        for c, val in sorted(dist.intra.items()):
            writer.writerow([source.value, "intra", c, f"{val:.6f}"])
        writer.writerow([source.value, "intra_pooled", "", f"{dist.intra_pooled:.6f}"])
        writer.writerow([source.value, "inter", "", f"{dist.inter:.6f}"])
