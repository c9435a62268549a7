"""Representation analysis: exact t-SNE and cluster distances of per-graph
feature vectors (the caller reads them from a layer; see ``graphcaps
embed``).

The t-SNE here is the exact O(m^2) formulation: per-point Gaussian bandwidths
found by binary search on the conditional-distribution entropy, symmetrized
joint probabilities, Student-t low-dimensional kernel, gradient descent with
momentum, adaptive gains and early exaggeration.  Benchmark-sized inputs
(about a thousand points) are well within exact range.

Its O(m^2) parts, the per-point bandwidth search, each descent step and the
KL divergence, run over blocks of rows on ``jobs`` processes: the caller and
``jobs - 1`` workers of the package's one pool (:mod:`graphcaps._pool`),
which fails the call, naming the row function, if a worker dies.  Processes,
not threads: on the benchmark's m = 1000 P a descent step took 9.61 ms on one
thread, 6.92 ms on two threads and 5.15 ms on two forked processes, because
the per-row (1 x m) @ (m x 3) BLAS calls do not overlap across threads and
every block's ufunc calls pass the interpreter lock back and forth.  The
processes share memory by one rule: every array that a worker writes, or that
the caller changes between runs, lives in anonymous shared memory
(:func:`_shared`) allocated before the fork; read-only inputs made before the
fork (the search's negated distances, the final P) are inherited; and a run
sends a worker only a private row function, by name, and its scalar
arguments.  Every row goes through the same float operations in the
same order whatever block or process it falls in: the Student-t kernel is
summed from coordinate differences, its normaliser is a sum of per-row sums,
and a descent step reduces each row of ``P * n`` and ``n * n`` against
``[1, y0, y1]`` by its own stacked (1 x m) @ (m x 3) product, the caller
combining the per-row results.  A step is one pass over the rows, and
no m x m buffer holds the kernel: each block of kernel rows lives in a
block-sized buffer.  The KL divergence takes its normaliser from the same
row pass.  The input's Gram product ``x @ x.T`` in :func:`joint_probabilities`
follows one of two rules: integer input whose ``max|x|^2 * D' < 2^24``, D'
being its occupied columns, skips its columns of zeros and is summed over
float32 chunks of the rest, every partial sum an exact integer; all other
input is one float64 call (a blocked float product can round differently).
So the output is bitwise the same for every ``jobs`` and every
``_ROW_BLOCK``.  Workers call only private helpers.
"""

from __future__ import annotations

import csv
import mmap
from dataclasses import dataclass

import numpy as np

from ._pool import RowWorkers


# Rows per block of the row-parallel work: a block of rows stays in cache
# across the passes a step makes over it.
_ROW_BLOCK = 64
# Elements of the input whose squares are summed at a time (1 MiB of float64).
_NORM_CHUNK = 1 << 17
# The factor on P during the first ``exaggeration_iters`` steps of :func:`tsne`.
_EARLY_EXAGGERATION = 12.0
# The bisection steps :func:`perplexity_search` takes at most per row.
_SEARCH_STEPS = 100


def _shared(shape) -> np.ndarray:
    """A zeroed float64 array in anonymous shared memory: a process forked
    after this call and its parent see each other's writes to it."""
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(8 * count, 1)), np.float64, count).reshape(shape)


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


def _float32_sums_exactly(top: float, dims: int) -> bool:
    """Whether every partial sum of a dot product of two integer
    ``dims``-vectors whose entries lie in ``[-top, top]`` is exact in
    float32: their magnitudes stay within ``top^2 * dims < 2^24``."""
    return top * top * dims < 1 << 24


def _pairwise_sq_dists(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Squared distances ``sq_i + sq_j - 2 G_ij`` between the rows of the
    (m x D) ``x``, zero diagonal, clipped at 0, computed in the m x m buffer
    ``out`` with the buffer ``scratch``.

    The Gram product ``G = x @ x.T`` follows one of two rules.  Integer or
    bool input is kept as it is, and one scan of it finds each column's
    largest ``|x|``, in float64 so that no integer width wraps.  A column of
    zeros adds an exact 0 to every dot product, so only the D' occupied
    columns count.  Where ``max|x|^2 * D' < 2^24`` (see
    :func:`_float32_sums_exactly`; one-hot input of any integer type at any
    D' below 2^24), G is summed over float32 chunks of m occupied columns,
    each gathered and cast alone, in the two float32 m x m halves of
    ``scratch``, and cast into ``out`` once.  Every partial sum is then an
    integer exact in float32, so G has the bits of one call on a float64
    copy of ``x``, without that copy, and its diagonal holds the exact
    squared norms (a uint8 ``x * x`` would wrap).  All other input is taken
    in float64 and G is one call: a blocked float product can round
    differently (OpenBLAS picks its kernels by shape), and these bits decide
    the layout."""
    m = len(x)
    exact = x.dtype.kind in "biu"
    if exact:
        top = x.max(axis=0).astype(np.float64)
        if x.dtype.kind == "i":
            np.maximum(top, -x.min(axis=0).astype(np.float64), out=top)
        cols = np.flatnonzero(top)
        exact = _float32_sums_exactly(top.max(initial=0), len(cols))
    if exact:
        acc, part = scratch.reshape(-1).view(np.float32).reshape(2, m, m)
        for f in range(0, max(len(cols), 1), m):  # no occupied column makes one chunk, of zeros
            chunk = x[:, cols[f : f + m]].astype(np.float32)
            np.matmul(chunk, chunk.T, out=part if f else acc)
            del chunk  # before the next is made: one chunk at a time
            if f:
                np.add(acc, part, out=acc)
        out[...] = acc
        sq = out.diagonal().copy()
    else:
        x = np.asarray(x, np.float64)
        np.matmul(x, x.T, out=out)
        sq = _sq_norms(x)
    for a, b in _blocks(0, len(x)):
        d, s = out[a:b], scratch[a:b]
        np.multiply(d, 2.0, out=d)
        # sq_i + sq_j as a row fill plus a column add: one add that broadcasts
        # both operands takes about twice as long
        s[...] = sq
        np.add(s, sq[a:b, None], out=s)
        np.subtract(s, d, out=d)
        d.reshape(-1)[a :: len(sq) + 1] = 0.0
        np.maximum(d, 0.0, out=d)
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


class _Search:
    """What the rows of :func:`perplexity_search` read and write: ``neg``,
    read-only; ``P`` and ``betas``, the results, in shared memory; and the
    block-sized buffers of :func:`_entropy_rows`, which each process writes
    in its own copy after a fork."""

    def __init__(self, neg: np.ndarray):
        m, block = len(neg), min(_ROW_BLOCK, len(neg))
        self.neg, self.P, self.betas = neg, _shared((m, m)), _shared(m)
        self.work = (np.empty((block, m - 1)), np.zeros((block, m - 1)),
                     np.empty((block, m - 1), bool))


def _search_rows(s: _Search, target, tol, lo, hi) -> None:
    """Bisect the precisions of rows ``lo:hi``, a block of rows at a time; a
    row leaves its block once its entropy is within ``tol`` of ``target``."""
    neg, P, betas = s.neg, s.P, s.betas
    m = len(neg)
    p_buf, terms, pos = s.work
    for a, b in _blocks(lo, hi):
        idx = np.arange(a, b)
        beta, lo_b, hi_b = np.ones(b - a), np.zeros(b - a), np.full(b - a, np.inf)
        p, h = _entropy_rows(neg, idx, beta, p_buf, terms, pos)
        for step in range(_SEARCH_STEPS + 1):
            done = np.abs(h - target) <= tol if step < _SEARCH_STEPS else np.ones(len(idx), bool)
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
                      jobs: int | None = None):
    """Per-point binary search for the Gaussian precisions matching the
    target perplexity within ``tol`` on the entropy scale.

    The rows are searched in vectorised blocks over ``jobs`` processes
    (None: all cores); each row's result is the same for every ``jobs``.

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
    s = _Search(neg)
    with RowWorkers(s, m, jobs, _ROW_BLOCK) as rows:
        rows.run(_search_rows, float(np.log(perplexity)), tol)
    return s.P, s.betas


def _check_perplexity(perplexity: float, m: int) -> None:
    if not 1.0 < perplexity < m:
        raise ValueError(f"perplexity must lie in (1, {m}), got {perplexity}")


def _check_iters(iters: int) -> None:
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")


def joint_probabilities(points: np.ndarray, perplexity: float,
                        jobs: int | None = None) -> np.ndarray:
    """Symmetrized, normalized t-SNE joint distribution P (zero diagonal) of
    the rows of ``points``.  Integer points whose Gram product sums exactly
    in float32 are read as they are; other points are taken in float64 only
    for their distances, so that copy is freed before the search (see
    :func:`_pairwise_sq_dists`).  ``jobs``
    processes search the precisions (see :func:`perplexity_search`)."""
    m = len(points)
    _check_perplexity(perplexity, m)
    d2 = _pairwise_sq_dists(np.asarray(points), np.empty((m, m)), np.empty((m, m)))
    cond, _ = perplexity_search(d2, perplexity, jobs=jobs)
    del d2
    P = (cond + cond.T) / (2.0 * m)
    return np.maximum(P, 1e-300)


class _Layout:
    """What the rows of a descent step and of the KL divergence of one P read
    and write.  ``P`` is read-only.  In shared memory: the layout, as ``yt``
    = y.T (2 x m) and ``yext`` = [1, y0, y1] (m x 3), and the per-row results
    ``totals`` (m), ``pn`` and ``nn`` (m x 3).  ``work`` holds two
    block-sized m-column buffers, which each process writes in its own copy
    after a fork: row-local intermediates stay in cache there instead of
    streaming through an m x m buffer."""

    def __init__(self, P: np.ndarray):
        m, block = len(P), min(_ROW_BLOCK, len(P))
        self.P = P
        self.yt, self.yext = _shared((2, m)), _shared((m, 3))
        self.yext[:, 0] = 1.0
        self.totals, self.pn, self.nn = _shared(m), _shared((m, 3)), _shared((m, 3))
        self.work = np.empty((block, m)), np.empty((block, m))

    def put(self, y: np.ndarray) -> None:
        """Make ``y`` (m x 2) the layout the rows read."""
        self.yt[...] = y.T
        self.yext[:, 1:] = y


def _student_t_block(yt, a: int, b: int, n: np.ndarray, s: np.ndarray) -> None:
    """Rows ``a:b`` of the Student-t kernel 1 / (1 + |y_i - y_j|^2) of the
    layout ``yt`` (2 x m) in ``n`` ((b - a) x m), zero diagonal, using ``s``
    of the same shape.  The squared distance is summed from coordinate
    differences, which do not cancel as the Gram form |y_i|^2 + |y_j|^2 -
    2 y_i.y_j does."""
    # (y_jc - y_ic)^2 as a row fill and a column subtract, which equals
    # (y_ic - y_jc)^2 bit for bit: one subtract that broadcasts both operands
    # takes about half as long again
    for d, c in ((n, 0), (s, 1)):
        d[...] = yt[c]
        np.square(np.subtract(d, yt[c, a:b, None], out=d), out=d)
    np.add(n, s, out=n)
    np.divide(1.0, np.add(n, 1.0, out=n), out=n)
    n.reshape(-1)[a :: n.shape[1] + 1] = 0.0


def _step_rows(s: _Layout, lo, hi) -> None:
    """For rows ``lo:hi`` of the kernel n of the layout: the row sums in
    ``s.totals``, and the rows of P * n and of n * n, each reduced against
    the columns of ``s.yext``, in ``s.pn`` and ``s.nn``.  Each row is its own
    (1 x m) @ (m x 3) product, which rounds alike in every block; a 2-D block
    product need not."""
    for a, b in _blocks(lo, hi):
        n, t = (buf[: b - a] for buf in s.work)
        _student_t_block(s.yt, a, b, n, t)
        n.sum(axis=1, out=s.totals[a:b])
        np.matmul(np.multiply(s.P[a:b], n, out=t)[:, None, :], s.yext, out=s.pn[a:b, None])
        np.matmul(np.square(n, out=n)[:, None, :], s.yext, out=s.nn[a:b, None])


def _kl_rows(s: _Layout, z, lo, hi) -> None:
    """Sums of the rows of P log(P / q), q = max(n / z, 1e-300) for the
    Student-t kernel n of the layout, without the diagonal, in ``s.totals``;
    the floor meets only the zero diagonal, whose term is then 0 log 1."""
    for a, b in _blocks(lo, hi):
        n, t = (buf[: b - a] for buf in s.work)
        _student_t_block(s.yt, a, b, n, t)
        pa = s.P[a:b]
        np.maximum(np.divide(n, z, out=t), 1e-300, out=t)
        np.multiply(pa, np.log(np.divide(pa, t, out=t), out=t), out=t)
        t.reshape(-1)[a :: len(s.P) + 1] = 0.0
        t.sum(axis=1, out=s.totals[a:b])


def kl_divergence(P: np.ndarray, y: np.ndarray, rows: RowWorkers | None = None) -> float:
    """KL(P || Q) of the layout ``y`` over the off-diagonal pairs, its rows
    run on ``rows``, the caller's row pool over the :class:`_Layout` of this
    P (default: the calling process alone).  The kernel is computed twice, a
    block at a time: once for its sum z, by a descent step's row pass
    (:func:`_step_rows`), once for the terms."""
    rows = RowWorkers(_Layout(P), len(P), 1, _ROW_BLOCK) if rows is None else rows
    rows.state.put(y)
    rows.run(_step_rows)
    z = rows.state.totals.sum()
    rows.run(_kl_rows, z)  # z is read before the row sums are reused
    return float(rows.state.totals.sum())


@dataclass
class TsneResult:
    coords: np.ndarray
    kl_initial: float
    kl_final: float


def tsne(points: np.ndarray, perplexity: float, iters: int = 1000, seed: int = 0,
         exaggeration_iters: int | None = None, momentum_switch: int | None = None,
         jobs: int | None = None) -> TsneResult:
    """Exact t-SNE to two dimensions.

    The early exaggeration and the lower momentum last ``exaggeration_iters``
    and ``momentum_switch`` steps; either defaults to ``min(250, iters // 2)``,
    so that every run spends its second half fitting the true P.

    The gradient 4 sum_j (e p_ij - q_ij) n_ij (y_i - y_j), with n the
    Student-t kernel, z its sum, q = n / z and e the exaggeration, is taken
    as 4 (S_0 y_i - S_1:) with S = e A - B / z, where A and B are the rows of
    P n and n n reduced against [1, y0, y1] (see :func:`_step_rows`).

    The learning rate is the size-scaled max(m / exaggeration / 4, 50), which
    stays stable from tens to thousands of points.  KL divergences
    are reported against the true (non-exaggerated) P, at the seeded initial
    layout and at the final one.  ``jobs`` processes (None: all cores) share
    the row work; the result is bitwise the same for every ``jobs``.
    """
    _check_iters(iters)
    if exaggeration_iters is None:
        exaggeration_iters = min(250, iters // 2)
    if momentum_switch is None:
        momentum_switch = min(250, iters // 2)
    P = joint_probabilities(points, perplexity, jobs=jobs)
    m = len(P)
    learning_rate = max(m / _EARLY_EXAGGERATION / 4.0, 50.0)
    rng = np.random.default_rng([seed, 0x74736E65])
    y = rng.normal(0.0, 1e-4, (m, 2))

    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    s = _Layout(P)
    with RowWorkers(s, m, jobs, _ROW_BLOCK) as rows:
        kl_initial = kl_divergence(P, y, rows)
        for it in range(iters):
            exaggeration = _EARLY_EXAGGERATION if it < exaggeration_iters else 1.0
            s.put(y)
            rows.run(_step_rows)
            # sum_j (e p_ij - q_ij) n_ij [1, y_j] with q = n / z, z the kernel's sum
            pq = exaggeration * s.pn - s.nn / s.totals.sum()
            grad = 4.0 * (pq[:, :1] * y - pq[:, 1:])
            momentum = 0.5 if it < momentum_switch else 0.8
            same_sign = np.sign(grad) == np.sign(velocity)
            gains = np.where(same_sign, gains * 0.8, gains + 0.2)
            np.clip(gains, 0.01, None, out=gains)
            velocity = momentum * velocity - learning_rate * gains * grad
            y = y + velocity
            y = y - y.mean(axis=0)
        kl_final = kl_divergence(P, y, rows)

    return TsneResult(coords=y, kl_initial=kl_initial, kl_final=kl_final)


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


def write_distances_csv(path: str, source: str, dist: ClusterDistances) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "measure", "class", "value"])
        for c, val in sorted(dist.intra.items()):
            writer.writerow([source, "intra", c, f"{val:.6f}"])
        writer.writerow([source, "intra_pooled", "", f"{dist.intra_pooled:.6f}"])
        writer.writerow([source, "inter", "", f"{dist.inter:.6f}"])
