"""Shared test fixtures: tiny graphs, random graph generators, TU-format file
writers, a synthetic two-class benchmark, and independent oracles."""

from __future__ import annotations

import itertools
import os
import struct

import numpy as np

from graphcaps.data import Graph
from graphcaps.selftest import bruteforce_betweenness, random_graph

__all__ = [
    "bruteforce_betweenness",
    "random_graph",
    "triangle",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "write_tu_files",
    "synthetic_dataset_graphs",
    "all_simple_graphs",
    "write_v2_cache",
    "flip_grid_byte",
]


def triangle(labels=(0, 0, 0), cls=0) -> Graph:
    return Graph(n=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}), node_labels=labels,
                 class_label=cls)


def path_graph(n: int, labels=None, cls=0) -> Graph:
    labels = tuple([0] * n) if labels is None else labels
    return Graph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)),
                 node_labels=labels, class_label=cls)


def star_graph(leaves: int, cls=0) -> Graph:
    return Graph(n=leaves + 1, edges=frozenset((0, i) for i in range(1, leaves + 1)),
                 node_labels=tuple([0] * (leaves + 1)), class_label=cls)


def cycle_graph(n: int, cls=0) -> Graph:
    edges = {(i, (i + 1) % n) for i in range(n)}
    return Graph(n=n, edges=frozenset(tuple(sorted(e)) for e in edges),
                 node_labels=tuple([0] * n), class_label=cls)


def all_simple_graphs(n: int):
    """Every labelled simple graph on n nodes (uniform node labels)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = frozenset(p for p, b in zip(pairs, bits) if b)
        yield Graph(n=n, edges=edges, node_labels=tuple([0] * n), class_label=0)


def write_tu_files(root: str, name: str, graphs) -> str:
    """Write graphs in the exact TU-Dortmund flat-file layout under
    ``root/name/``.  Edges are emitted in both directions, 1-based."""
    base = os.path.join(root, name)
    os.makedirs(base, exist_ok=True)
    offsets = np.cumsum([0] + [g.n for g in graphs])
    with open(os.path.join(base, f"{name}_A.txt"), "w") as fh:
        for gi, g in enumerate(graphs):
            off = offsets[gi]
            for u, v in sorted(g.edges):
                fh.write(f"{off + u + 1}, {off + v + 1}\n")
                fh.write(f"{off + v + 1}, {off + u + 1}\n")
    with open(os.path.join(base, f"{name}_graph_indicator.txt"), "w") as fh:
        for gi, g in enumerate(graphs):
            fh.writelines(f"{gi + 1}\n" for _ in range(g.n))
    with open(os.path.join(base, f"{name}_graph_labels.txt"), "w") as fh:
        fh.writelines(f"{g.class_label}\n" for g in graphs)
    with open(os.path.join(base, f"{name}_node_labels.txt"), "w") as fh:
        for g in graphs:
            fh.writelines(f"{lab}\n" for lab in g.node_labels)
    return base


def synthetic_dataset_graphs(num_graphs: int = 60, seed: int = 0, num_labels: int = 3):
    """A learnable two-class benchmark of small labelled graphs.

    Class 0 graphs are label-homogeneous rings with a few chords; class 1
    graphs are two-level trees whose leaf labels alternate.  Both families
    vary in size, so fixed-size extraction sees real structural differences
    rather than memorizable sizes.
    """
    rng = np.random.default_rng([seed, 0x73796E])
    graphs = []
    for i in range(num_graphs):
        cls = i % 2
        n = int(rng.integers(6, 13))
        if cls == 0:
            edges = {(j, (j + 1) % n) for j in range(n)}
            for _ in range(2):
                u, v = rng.integers(0, n, 2)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            labels = [int(lab) for lab in rng.integers(0, 2, n)]
        else:
            edges = set()
            for j in range(1, n):
                parent = int(rng.integers(0, max(1, j // 2)))
                edges.add((min(parent, j), max(parent, j)))
            labels = [(2 if j % 2 else 1) % num_labels for j in range(n)]
        graphs.append(
            Graph(n=n, edges=frozenset(tuple(sorted(e)) for e in edges),
                  node_labels=tuple(labels), class_label=cls)
        )
    return graphs


def write_v2_cache(path: str, grids, labels, d: int, digest: bytes) -> None:
    """A tensor cache file in the retired version-2 byte layout: a 72-byte
    header (magic, version, w, k, d, count, procedure, flags, reserved, seed,
    dataset sha256), then int32 class labels and uint16 grids."""
    count, w, k = grids.shape
    header = struct.pack("<8sIIIIIBBHq32s", b"GCTENSR\0", 2, w, k, d, count, 0, 0, 0, 1, digest)
    with open(path, "wb") as fh:
        fh.write(header + np.asarray(labels, "<i4").tobytes() + np.asarray(grids, "<u2").tobytes())


def flip_grid_byte(path: str) -> None:
    """Flip the low bit of the first label stored in the ``grids`` member of
    a tensor cache archive, leaving the zip structure intact."""
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    npy = blob.index(b"\x93NUMPY", blob.index(b"grids.npy"))
    header_len = int.from_bytes(blob[npy + 8:npy + 10], "little")  # npy format 1.0
    blob[npy + 10 + header_len] ^= 1
    with open(path, "wb") as fh:
        fh.write(blob)
