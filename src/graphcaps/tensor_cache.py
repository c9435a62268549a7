"""Binary cache for extracted label grids.

Byte layout (all integers little-endian):

    offset  size  field
    0       8     magic b"GCTENSR\\0"
    8       4     format version (currently 2)
    12      4     w
    16      4     k
    20      4     d          (label alphabet size; label d marks padding)
    24      4     graph count
    28      1     procedure  (0 = betweenness, 1 = canonical)
    29      1     flags      (bit 0: naive tie-breaking)
    30      2     reserved (zero)
    32      8     permutation seed as signed int64 (-1 = none)
    40      32    sha256 of the source dataset files (data.dataset_digest)

followed by:

    4*count       class labels, int32, in graph index order
    2*count*w*k   label grids, uint16, row-major (count, w, k)

The version is bumped whenever extraction output changes, so a file written
by other extraction code, like one written from other dataset contents, is
stale rather than reused.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .labelling import Procedure

MAGIC = b"GCTENSR\x00"
VERSION = 2
_HEADER = struct.Struct("<8sIIIIIBBHq32s")

_PROC_CODE = {Procedure.BETWEENNESS: 0, Procedure.CANONICAL: 1}
_CODE_PROC = {v: k for k, v in _PROC_CODE.items()}


class CacheError(RuntimeError):
    """Cache file missing or corrupt."""


class StaleCacheError(CacheError):
    """Cache file intact but written by another format version or from other
    dataset contents; rebuild it."""


def cache_filename(dataset: str, procedure: Procedure, w: int, k: int, seed, naive_ties: bool) -> str:
    seed_part = "noperm" if seed is None else f"seed{seed}"
    naive_part = "-naive" if naive_ties else ""
    return f"{dataset}_{procedure.value}{naive_part}_w{w}_k{k}_{seed_part}.gct"


def save_tensors(
    path: str,
    grids: np.ndarray,
    labels: np.ndarray,
    d: int,
    procedure: Procedure,
    seed,
    naive_ties: bool,
    digest: bytes,
) -> None:
    """Write ``(n, w, k)`` label grids and their ``n`` class labels."""
    count, w, k = grids.shape
    flags = 1 if naive_ties else 0
    seed_field = -1 if seed is None else int(seed)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC, VERSION, w, k, d, count, _PROC_CODE[procedure], flags, 0, seed_field, digest
            )
        )
        fh.write(np.asarray(labels, dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(grids, dtype="<u2").tobytes())


def load_tensors(path: str, digest: bytes) -> dict:
    """Read a cache file written from the dataset whose digest is ``digest``.

    Returns {grids, labels, w, k, d, procedure, seed, naive_ties}.  Raises
    :class:`StaleCacheError` for another format version or dataset digest and
    :class:`CacheError` for a missing or corrupt file.
    """
    if not os.path.isfile(path):
        raise CacheError(f"cache file not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CacheError(f"{path}: bad magic {blob[:8]!r}")
    if len(blob) < 12:
        raise CacheError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != VERSION:
        raise StaleCacheError(f"{path}: format version {version}, expected {VERSION}")
    if len(blob) < _HEADER.size:
        raise CacheError(f"{path}: truncated header")
    _, _, w, k, d, count, proc_code, flags, _, seed_field, file_digest = _HEADER.unpack_from(blob)
    if proc_code not in _CODE_PROC:
        raise CacheError(f"{path}: unknown procedure code {proc_code}")
    if file_digest != digest:
        raise StaleCacheError(f"{path}: written from other dataset contents")
    body = len(blob) - _HEADER.size
    expected = 4 * count + 2 * count * w * k
    if body < expected:
        raise CacheError(f"{path}: truncated body, {body} of {expected} bytes")
    if body > expected:
        raise CacheError(f"{path}: trailing bytes after {count} graphs")
    labels = np.frombuffer(blob, dtype="<i4", count=count, offset=_HEADER.size)
    grids = np.frombuffer(
        blob, dtype="<u2", count=count * w * k, offset=_HEADER.size + 4 * count
    ).reshape(count, w, k)
    if grids.size and grids.max() > d:
        raise CacheError(f"{path}: label {grids.max()} above the padding label {d}")
    return {
        "grids": grids,
        "labels": labels,
        "w": w,
        "k": k,
        "d": d,
        "procedure": _CODE_PROC[proc_code],
        "seed": None if seed_field == -1 else seed_field,
        "naive_ties": bool(flags & 1),
    }
