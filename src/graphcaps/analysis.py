"""Representation analysis: embedding extraction, exact t-SNE, cluster
distances.

The t-SNE here is the exact O(m^2) formulation: per-point Gaussian bandwidths
found by binary search on the conditional-distribution entropy, symmetrized
joint probabilities, Student-t low-dimensional kernel, gradient descent with
momentum, adaptive gains and early exaggeration.  Benchmark-sized inputs
(about a thousand points) are well within exact range.

Its two O(m^2) parts, the per-point bandwidth search and the per-row work of
each descent step, run over blocks of rows on ``jobs`` threads; numpy releases
the interpreter lock inside its ufuncs and BLAS calls, so the threads share
the m x m buffers.  Every row goes through the same float operations in the
same order whatever block or thread it falls in, and the calls that combine
whole buffers (each Gram product ``x @ x.T``, the kernel's normaliser and the
gradient's ``pq @ y``) stay single calls in the calling thread, so the output
is bitwise the same for every ``jobs``.  Pool threads call only private
helpers and write only into arrays that the caller allocated.
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
        return np.array(tensors, dtype=np.float64).reshape(len(tensors), -1)
    if source is EmbeddingSource.CNN_INNER and not isinstance(model, PatchyCnn):
        raise ValueError(f"source 'cnn' needs the CNN baseline, got {type(model).__name__}")
    if source is EmbeddingSource.PRIMARY_CAPS and not isinstance(model, CapsNet):
        raise ValueError(f"source 'caps' needs the capsule model, got {type(model).__name__}")
    return model.inner_features(np.asarray(tensors, dtype=model.params["conv1_w"].data.dtype))


# Rows per block of the row-parallel work: a block of each m x m buffer stays
# in cache across the passes a step makes over it.
_ROW_BLOCK = 64
# Elements of the input whose squares are summed at a time (1 MiB of float64).
_NORM_CHUNK = 1 << 17


class _RowPool:
    """Runs row-block work on ``jobs`` threads: ``run`` splits ``range(m)`` into
    at most ``jobs`` runs of whole ``_ROW_BLOCK``-row blocks and calls
    ``fn(*args, slot, lo, hi)`` once per run, run ``slot`` 0 in the calling
    thread.  ``jobs=None`` means ``os.cpu_count()``; one job (or fewer) starts
    no thread."""

    def __init__(self, jobs: int | None):
        self.jobs = max(1, (os.cpu_count() or 1) if jobs is None else jobs)
        self._pool = None
        if self.jobs > 1:
            # imported here: it would add to every import of this module
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self.jobs - 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def run(self, fn, m: int, *args) -> None:
        step = -(-m // (self.jobs * _ROW_BLOCK)) * _ROW_BLOCK
        runs = [(lo, min(lo + step, m)) for lo in range(0, m, step)]
        futures = [self._pool.submit(fn, *args, slot, lo, hi)
                   for slot, (lo, hi) in enumerate(runs) if slot > 0]
        try:
            fn(*args, 0, *runs[0])
        finally:
            for future in futures:
                future.result()


def _blocks(lo: int, hi: int):
    return ((a, min(a + _ROW_BLOCK, hi)) for a in range(lo, hi, _ROW_BLOCK))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """``(x * x).sum(axis=1)``, bitwise, without an input-sized temporary."""
    m = len(x)
    sq = np.empty(m)
    rows = max(1, _NORM_CHUNK // max(1, x.shape[1]))
    buf = np.empty((min(rows, m), x.shape[1]))
    for a in range(0, m, rows):
        b = min(a + rows, m)
        np.multiply(x[a:b], x[a:b], out=buf[: b - a]).sum(axis=1, out=sq[a:b])
    return sq


def _sq_dists_rows(sq, d2, scratch, a, b) -> None:
    """Rows ``a:b`` of ``d2``, which hold the Gram product, become squared
    distances ``sq_i + sq_j - 2 G_ij`` with a zero diagonal, clipped at 0."""
    d, s = d2[a:b], scratch[a:b]
    np.multiply(d, 2.0, out=d)
    # sq_i + sq_j as a row fill plus a column add: one add that broadcasts
    # both operands takes about twice as long
    s[...] = sq
    np.add(s, sq[a:b, None], out=s)
    np.subtract(s, d, out=d)
    d.reshape(-1)[a :: len(sq) + 1] = 0.0
    np.maximum(d, 0.0, out=d)


def _pairwise_sq_dists(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``x``, zero diagonal, clipped at
    0, computed in the m x m buffer ``out`` with the buffer ``scratch``."""
    # One Gram call: a row-blocked product can round differently (OpenBLAS
    # picks its kernels by shape), and these bits decide the layout.
    np.matmul(x, x.T, out=out)
    sq = _sq_norms(x)
    for a, b in _blocks(0, len(x)):
        _sq_dists_rows(sq, out, scratch, a, b)
    return out


def _entropy_rows(neg, idx, beta, p, terms, pos):
    """Shannon entropies (nats) of the conditional distributions p_{j|i} of
    the rows ``idx`` of ``neg`` (negated off-diagonal squared distances) at
    precisions ``beta`` = 1/(2 sigma^2); the probabilities are left in
    ``p[:len(idx)]``.  Each row runs the arithmetic of one row alone."""
    k = len(idx)
    p, terms, pos = p[:k], terms[:k], pos[:k]
    np.take(neg, idx, axis=0, out=p, mode="clip")
    np.exp(np.multiply(p, beta[:, None], out=p), out=p)
    s = p.sum(axis=1)
    np.divide(p, np.where(s <= 0.0, 1.0, s)[:, None], out=p)  # all-zero rows stay zero
    np.greater(p, 0.0, out=pos)
    np.log(p, out=terms, where=pos)
    np.multiply(p, terms, out=terms, where=pos)
    h = terms.sum(axis=1)
    for r in np.flatnonzero(~pos.all(axis=1)):
        h[r] = terms[r][pos[r]].sum()  # sum the nonzero terms alone, as p[p > 0] does
    return p, np.negative(h, out=h)


def _search_rows(neg, target, tol, max_steps, P, betas, work, slot, lo, hi) -> None:
    """Bisect the precisions of rows ``lo:hi``, a block of rows at a time; a
    row leaves its block once its entropy is within ``tol`` of ``target``."""
    m = len(neg)
    p_buf, terms, pos = work[slot]
    for a, b in _blocks(lo, hi):
        idx = np.arange(a, b)
        beta, lo_b, hi_b = np.ones(b - a), np.zeros(b - a), np.full(b - a, np.inf)
        p, h = _entropy_rows(neg, idx, beta, p_buf, terms, pos)
        for step in range(max_steps + 1):
            done = np.abs(h - target) <= tol if step < max_steps else np.ones(len(idx), bool)
            for j in np.flatnonzero(done):
                i = idx[j]
                betas[i] = beta[j]
                P[i, :i], P[i, i + 1 : m] = p[j, :i], p[j, i:]
            keep = ~done
            if not keep.any():
                break
            idx, beta, lo_b, hi_b, h = idx[keep], beta[keep], lo_b[keep], hi_b[keep], h[keep]
            up = h > target  # entropy too high -> narrow the kernel
            beta, lo_b, hi_b = (
                np.where(up, np.where(hi_b == np.inf, beta * 2.0, (beta + hi_b) / 2.0),
                         np.where(lo_b == 0.0, beta / 2.0, (beta + lo_b) / 2.0)),
                np.where(up, beta, lo_b),
                np.where(up, hi_b, beta),
            )
            p, h = _entropy_rows(neg, idx, beta, p_buf, terms, pos)


def perplexity_search(d2: np.ndarray, perplexity: float, tol: float = 1e-4,
                      max_steps: int = 100, jobs: int | None = None):
    """Per-point binary search for the Gaussian precisions matching the
    target perplexity within ``tol`` on the entropy scale.

    The rows are searched in vectorised blocks over ``jobs`` threads (None:
    all cores); each row's result is the same for every ``jobs``.

    Returns (conditional probability matrix with zero diagonal, betas).
    """
    m = d2.shape[0]
    neg = np.empty((m, m - 1))  # row i: -d2[i] without d2[i, i]
    np.negative(d2.reshape(-1)[1:].reshape(m - 1, m + 1)[:, :m], out=neg.reshape(m - 1, m))
    bad = np.flatnonzero(neg.min(axis=1) >= 0.0)
    if len(bad):
        raise ValueError(
            f"point {bad[0]} has zero distance to all others; "
            "t-SNE rejects zero-variance input"
        )
    P = np.zeros((m, m))
    betas = np.ones(m)
    with _RowPool(jobs) as rows:
        block = min(_ROW_BLOCK, m)
        work = [(np.empty((block, m - 1)), np.zeros((block, m - 1)),
                 np.empty((block, m - 1), bool)) for _ in range(rows.jobs)]
        rows.run(_search_rows, m, neg, float(np.log(perplexity)), tol, max_steps, P, betas,
                 work)
    return P, betas


def _check_perplexity(perplexity: float, m: int) -> None:
    if not 1.0 < perplexity < m:
        raise ValueError(f"perplexity must lie in (1, {m}), got {perplexity}")


def joint_probabilities(points: np.ndarray, perplexity: float, tol: float = 1e-4,
                        jobs: int | None = None) -> np.ndarray:
    """Symmetrized, normalized t-SNE joint distribution P (zero diagonal);
    ``jobs`` threads search the precisions (see :func:`perplexity_search`)."""
    m = len(points)
    _check_perplexity(perplexity, m)
    d2 = _pairwise_sq_dists(points, np.empty((m, m)), np.empty((m, m)))
    cond, _ = perplexity_search(d2, perplexity, tol=tol, jobs=jobs)
    del d2
    P = (cond + cond.T) / (2.0 * m)
    return np.maximum(P, 1e-300)


def _student_t_rows(sq, num, scratch, _slot, lo, hi) -> None:
    for a, b in _blocks(lo, hi):
        _sq_dists_rows(sq, num, scratch, a, b)
        n = num[a:b]
        np.divide(1.0, np.add(n, 1.0, out=n), out=n)
        n.reshape(-1)[a :: len(sq) + 1] = 0.0


def _student_t(y: np.ndarray, num: np.ndarray, scratch: np.ndarray, rows: _RowPool) -> float:
    """The Student-t kernel 1 / (1 + |y_i - y_j|^2) of the layout ``y`` (zero
    diagonal) in the m x m buffer ``num``; returns its sum."""
    np.matmul(y, y.T, out=num)  # one call, as in _pairwise_sq_dists
    rows.run(_student_t_rows, len(y), _sq_norms(y), num, scratch)
    return num.sum()


def _gradient_rows(p_eff, num, q, z, row_sums, _slot, lo, hi) -> None:
    """Rows of the affinities q = max(num / z, 1e-300), then of
    pq = (p_eff - q) * num in ``q``, and their sums."""
    for a, b in _blocks(lo, hi):
        qa, na = q[a:b], num[a:b]
        np.maximum(np.divide(na, z, out=qa), 1e-300, out=qa)
        np.multiply(np.subtract(p_eff[a:b], qa, out=qa), na, out=qa)
        qa.sum(axis=1, out=row_sums[a:b])


def kl_divergence(P: np.ndarray, y: np.ndarray) -> float:
    m = len(y)
    num, q = np.empty((m, m)), np.empty((m, m))
    z = _student_t(y, num, q, _RowPool(1))
    np.maximum(np.divide(num, z, out=q), 1e-300, out=q)
    mask = ~np.eye(m, dtype=bool)
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
         exaggeration_iters: int = 250, momentum_switch: int = 250,
         jobs: int | None = None) -> TsneResult:
    """Exact t-SNE to ``out_dims`` dimensions.

    ``learning_rate=None`` uses the size-scaled rate max(m / exaggeration / 4,
    50), which stays stable from tens to thousands of points.  KL divergences
    are reported against the true (non-exaggerated) P, at the seeded initial
    layout and at the final one.  ``jobs`` threads (None: all cores) share
    the row work; the result is bitwise the same for every ``jobs``.
    """
    points = np.asarray(points, dtype=np.float64)
    P = joint_probabilities(points, perplexity, jobs=jobs)
    m = len(points)
    del points  # the float64 input is not needed once P exists
    if learning_rate is None:
        learning_rate = max(m / early_exaggeration / 4.0, 50.0)
    rng = np.random.default_rng([seed, 0x74736E65])
    y = rng.normal(0.0, 1e-4, (m, out_dims))
    kl_initial = kl_divergence(P, y)

    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    p_exaggerated = P * early_exaggeration
    q, num, row_sums = np.empty((m, m)), np.empty((m, m)), np.empty(m)
    with _RowPool(jobs) as rows:
        for it in range(iters):
            p_eff = p_exaggerated if it < exaggeration_iters else P
            z = _student_t(y, num, q, rows)
            rows.run(_gradient_rows, m, p_eff, num, q, z, row_sums)
            grad = 4.0 * (row_sums[:, None] * y - q @ y)
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
