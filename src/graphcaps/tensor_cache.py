"""Cache of extraction results, one uncompressed numpy archive per file.

Each ``.gct`` file holds exactly three members: the payload, ``version``
(bumped whenever extraction output changes) and ``digest`` (32 uint8, the
source files' :func:`graphcaps.data.dataset_digest`).  Two payloads exist:

- ``grids``: uint16 ``(n, w, k)`` label grids of one labelling, ``w`` and
  ``k``, padding stored as label ``d`` (:func:`save_tensors`);
- ``orders``: uint16, every graph's canonical order, graph after graph, one
  file per dataset (:func:`save_orders`).  The order depends on neither the
  labelling nor ``w`` nor ``k``, so every extraction of a dataset shares it.

A file that cannot be used as it stands raises :class:`CacheError`, and the
caller extracts again.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

VERSION = 4


class CacheError(RuntimeError):
    """A cache file that cannot be used as it stands; rebuild it."""


def _save(path: str, digest: bytes, **payload) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # through a file handle, np.savez keeps the name instead of adding ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, **payload, version=VERSION, digest=np.frombuffer(digest, dtype=np.uint8))


def _load(path: str, digest: bytes, payload: str) -> np.ndarray:
    """The member ``payload`` of a file written by :func:`_save` from the
    dataset whose digest is ``digest``; raises :class:`CacheError` for a
    file that is not an archive, fails a CRC-32, has other members than
    ``payload``, ``version`` and ``digest``, or has another version or
    digest."""
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not an npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                members = {name: archive[name] for name in archive.files}
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise CacheError(f"{path}: {exc}") from exc
    expected = sorted(["digest", payload, "version"])
    if sorted(members) != expected:
        raise CacheError(f"{path}: members {sorted(members)}, expected {expected}")
    if not np.array_equal(members["version"], VERSION):
        raise CacheError(f"{path}: format version {members['version']}, expected {VERSION}")
    if members["digest"].tobytes() != digest:
        raise CacheError(f"{path}: written from other dataset contents")
    return members[payload]


def save_tensors(path: str, grids: np.ndarray, digest: bytes) -> None:
    """Write ``(n, w, k)`` label grids extracted from the dataset whose
    :func:`~graphcaps.data.dataset_digest` is ``digest``."""
    _save(path, digest, grids=np.asarray(grids, dtype=np.uint16))


def load_tensors(path: str, digest: bytes, shape: tuple, d: int) -> np.ndarray:
    """The ``shape`` uint16 label grids of a file written by :func:`save_tensors`
    from the dataset whose digest is ``digest``, with labels in ``[0, d]``.

    Raises :class:`CacheError` for a file that is not an archive, lacks a
    member or fails its CRC-32, or has another version, digest, shape or
    dtype, or a label above ``d``.
    """
    grids = _load(path, digest, "grids")
    if grids.dtype != np.uint16 or grids.shape != tuple(shape):
        raise CacheError(f"{path}: {grids.dtype} grids of shape {grids.shape}, "
                         f"expected uint16 {tuple(shape)}")
    if grids.size and grids.max() > d:
        raise CacheError(f"{path}: label {grids.max()} above the padding label {d}")
    return grids


def save_orders(path: str, orders: np.ndarray, digest: bytes) -> None:
    """Write every graph's canonical order, concatenated graph after graph,
    of the dataset whose digest is ``digest``.  Nodes fit uint16, since the
    canonical search refuses graphs above
    :data:`graphcaps.labelling.MAX_CANONICAL_NODES` nodes."""
    _save(path, digest, orders=np.asarray(orders, dtype=np.uint16))


def load_orders(path: str, digest: bytes, sizes) -> np.ndarray:
    """The int64 orders of a file written by :func:`save_orders` from the
    dataset whose digest is ``digest`` and whose graphs have ``sizes``
    nodes: graph ``i``'s order is the ``sizes[i]`` entries after those of
    the graphs before it.

    Raises :class:`CacheError` where :func:`load_tensors` would, and for
    orders that are not uint16, whose length is not the node total, or in
    which a graph's slice is not a permutation of its nodes.
    """
    orders = _load(path, digest, "orders")
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    if orders.dtype != np.uint16 or orders.shape != (total,):
        raise CacheError(f"{path}: {orders.dtype} orders of shape {orders.shape}, "
                         f"expected uint16 ({total},)")
    graph = np.repeat(np.arange(len(sizes)), sizes)
    orders = orders.astype(np.int64)
    # in range, each slice's nodes land in its own span of the node total, so
    # every node once means every slice is a permutation
    seen = np.bincount(np.where(orders < sizes[graph], orders + (np.cumsum(sizes) - sizes)[graph],
                                total), minlength=total + 1)
    bad = np.flatnonzero(seen[:total] != 1)
    if bad.size:
        raise CacheError(f"{path}: the order of graph {graph[bad[0]]} is not a permutation "
                         f"of its {sizes[graph[bad[0]]]} nodes")
    return orders
