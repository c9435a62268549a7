"""Cache of extracted label grids, one uncompressed numpy archive per file.

A ``.gct`` file holds exactly three members: ``grids`` (uint16 ``(n, w, k)``
label grids, padding stored as label ``d``), ``version`` (bumped whenever
extraction output changes) and ``digest`` (32 uint8, the source files'
:func:`graphcaps.data.dataset_digest`).  A file that cannot be used as it
stands raises :class:`CacheError`, and the caller extracts again.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

VERSION = 4
MEMBERS = ["digest", "grids", "version"]


class CacheError(RuntimeError):
    """A cache file that cannot be used as it stands; rebuild it."""


def save_tensors(path: str, grids: np.ndarray, digest: bytes) -> None:
    """Write ``(n, w, k)`` label grids extracted from the dataset whose
    :func:`~graphcaps.data.dataset_digest` is ``digest``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # through a file handle, np.savez keeps the name instead of adding ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, grids=np.asarray(grids, dtype=np.uint16), version=VERSION,
                 digest=np.frombuffer(digest, dtype=np.uint8))


def load_tensors(path: str, digest: bytes, shape: tuple, d: int) -> np.ndarray:
    """The ``shape`` uint16 label grids of a file written by :func:`save_tensors`
    from the dataset whose digest is ``digest``, with labels in ``[0, d]``.

    Raises :class:`CacheError` for a file that is not an archive, lacks a
    member or fails its CRC-32, or has another version, digest, shape or
    dtype, or a label above ``d``.
    """
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not an npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                members = {name: archive[name] for name in archive.files}
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise CacheError(f"{path}: {exc}") from exc
    if sorted(members) != MEMBERS:
        raise CacheError(f"{path}: members {sorted(members)}, expected {MEMBERS}")
    if not np.array_equal(members["version"], VERSION):
        raise CacheError(f"{path}: format version {members['version']}, expected {VERSION}")
    if members["digest"].tobytes() != digest:
        raise CacheError(f"{path}: written from other dataset contents")
    grids = members["grids"]
    if grids.dtype != np.uint16 or grids.shape != tuple(shape):
        raise CacheError(f"{path}: {grids.dtype} grids of shape {grids.shape}, "
                         f"expected uint16 {tuple(shape)}")
    if grids.size and grids.max() > d:
        raise CacheError(f"{path}: label {grids.max()} above the padding label {d}")
    return grids
