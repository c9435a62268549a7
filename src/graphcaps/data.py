"""Loading and preprocessing of labelled-graph classification benchmarks.

Datasets use the TU-Dortmund flat-file layout: ``<name>_A.txt`` holds "u, v"
edge lines with 1-based global node ids, ``<name>_graph_indicator.txt`` maps
each node line to its graph id, and ``<name>_graph_labels.txt`` /
``<name>_node_labels.txt`` hold one integer per graph / node.  All indices are
re-mapped to contiguous 0-based ranges at load time; the original-id mapping
tables are kept for reporting.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

# Sentinel for dummy nodes introduced when a graph or neighbourhood is smaller
# than the requested geometry.  Stored as label d in label grids, which one_hot
# maps to the extra (d+1)-th channel.
PAD = -1


class DatasetFormatError(ValueError):
    """A dataset file exists but does not parse as TU-Dortmund format."""


@dataclass
class Graph:
    """Undirected labelled graph with a class label.

    Edges are stored once per unordered pair as ``(u, v)`` with ``u < v``;
    symmetry is implied.  ``node_labels`` are categorical ints in ``[0, d)``.
    """

    n: int
    edges: frozenset
    node_labels: tuple
    class_label: int
    _adj: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"graph must have at least one node, got n={self.n}")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) references a node outside [0, {self.n})")
            norm.add((u, v) if u < v else (v, u))
        self.edges = frozenset(norm)
        self.node_labels = tuple(int(x) for x in self.node_labels)
        if len(self.node_labels) != self.n:
            raise ValueError(
                f"expected {self.n} node labels, got {len(self.node_labels)}"
            )

    def adjacency(self) -> list:
        """Neighbour lists, each sorted ascending.  Built once, then cached."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def degrees(self) -> list:
        return [len(nbrs) for nbrs in self.adjacency()]


@dataclass
class GraphDataset:
    graphs: list
    num_classes: int
    num_node_labels: int
    name: str
    # original value -> contiguous index, retained for reporting
    class_map: dict = field(default_factory=dict)
    label_map: dict = field(default_factory=dict)

    def __post_init__(self):
        for g in self.graphs:
            if not 0 <= g.class_label < self.num_classes:
                raise ValueError(f"class label {g.class_label} outside [0, {self.num_classes})")
            if g.node_labels and max(g.node_labels) >= self.num_node_labels:
                raise ValueError(
                    f"node label {max(g.node_labels)} outside [0, {self.num_node_labels})"
                )

    def __len__(self):
        return len(self.graphs)

    def class_labels(self) -> np.ndarray:
        return np.array([g.class_label for g in self.graphs], dtype=np.int64)

    def stats(self) -> dict:
        """Headline dataset statistics (graph counts, sizes, class balance)."""
        sizes = [g.n for g in self.graphs]
        counts = np.bincount(self.class_labels(), minlength=self.num_classes)
        return {
            "name": self.name,
            "num_graphs": len(self.graphs),
            "num_classes": self.num_classes,
            "num_node_labels": self.num_node_labels,
            "max_graph_size": max(sizes),
            "avg_graph_size": float(np.mean(sizes)),
            "class_fractions": (counts / max(1, len(self.graphs))).tolist(),
        }


def _read_lines(path: str) -> list:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _parse_int(text: str, path: str, lineno: int) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise DatasetFormatError(f"{path}:{lineno}: expected an integer, got {text!r}") from exc


def resolve_dataset_dir(root: str, name: str) -> str:
    """Accept both ``root/<name>/<name>_A.txt`` and ``root/<name>_A.txt`` layouts."""
    sub = os.path.join(root, name)
    if os.path.isfile(os.path.join(sub, f"{name}_A.txt")):
        return sub
    return root


def load_tu_dataset(root: str, name: str) -> GraphDataset:
    """Load one benchmark dataset from TU-Dortmund flat files under ``root``.

    Returns a :class:`GraphDataset` with 0-based contiguous node, label and
    class indices; the edge list is deduplicated and symmetrized.
    """
    base = resolve_dataset_dir(root, name)
    a_path = os.path.join(base, f"{name}_A.txt")
    ind_path = os.path.join(base, f"{name}_graph_indicator.txt")
    gl_path = os.path.join(base, f"{name}_graph_labels.txt")
    nl_path = os.path.join(base, f"{name}_node_labels.txt")

    ind_lines = _read_lines(ind_path)
    graph_of_node = [_parse_int(t, ind_path, i + 1) for i, t in enumerate(ind_lines) if t.strip()]
    if not graph_of_node:
        raise DatasetFormatError(f"{ind_path}: no nodes")
    graph_ids = sorted(set(graph_of_node))
    gid_index = {gid: i for i, gid in enumerate(graph_ids)}
    num_graphs = len(graph_ids)

    gl_lines = [t for t in _read_lines(gl_path) if t.strip()]
    if len(gl_lines) > num_graphs:
        raise DatasetFormatError(
            f"{gl_path}: {len(gl_lines)} class labels but only {num_graphs} graphs "
            "have nodes (graph with zero nodes)"
        )
    if len(gl_lines) < num_graphs:
        raise DatasetFormatError(
            f"{gl_path}: {len(gl_lines)} class labels for {num_graphs} graphs"
        )
    raw_classes = [_parse_int(t, gl_path, i + 1) for i, t in enumerate(gl_lines)]
    class_map = {c: i for i, c in enumerate(sorted(set(raw_classes)))}

    nl_lines = [t for t in _read_lines(nl_path) if t.strip()]
    if len(nl_lines) != len(graph_of_node):
        raise DatasetFormatError(
            f"{nl_path}: {len(nl_lines)} node labels for {len(graph_of_node)} nodes"
        )
    raw_node_labels = [_parse_int(t, nl_path, i + 1) for i, t in enumerate(nl_lines)]
    label_map = {l: i for i, l in enumerate(sorted(set(raw_node_labels)))}

    # global 1-based node id -> (graph index, local 0-based id)
    local_id = []
    sizes = [0] * num_graphs
    for gid in graph_of_node:
        gi = gid_index[gid]
        local_id.append(sizes[gi])
        sizes[gi] += 1
    if min(sizes) == 0:
        empty = graph_ids[sizes.index(0)]
        raise DatasetFormatError(f"{ind_path}: graph {empty} has zero nodes")

    edge_sets = [set() for _ in range(num_graphs)]
    n_nodes = len(graph_of_node)
    for lineno, line in enumerate(_read_lines(a_path), start=1):
        if not line.strip():
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetFormatError(f"{a_path}:{lineno}: expected 'u, v', got {line!r}")
        u = _parse_int(parts[0], a_path, lineno)
        v = _parse_int(parts[1], a_path, lineno)
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise DatasetFormatError(
                f"{a_path}:{lineno}: edge ({u}, {v}) references an unknown node"
            )
        gu, gv = gid_index[graph_of_node[u - 1]], gid_index[graph_of_node[v - 1]]
        if gu != gv:
            raise DatasetFormatError(
                f"{a_path}:{lineno}: edge ({u}, {v}) crosses graphs {gu} and {gv}"
            )
        if u == v:
            raise DatasetFormatError(f"{a_path}:{lineno}: self-loop on node {u}")
        lu, lv = local_id[u - 1], local_id[v - 1]
        edge_sets[gu].add((lu, lv) if lu < lv else (lv, lu))

    node_labels_per_graph = [[] for _ in range(num_graphs)]
    for nid, gid in enumerate(graph_of_node):
        node_labels_per_graph[gid_index[gid]].append(label_map[raw_node_labels[nid]])

    graphs = [
        Graph(
            n=sizes[i],
            edges=frozenset(edge_sets[i]),
            node_labels=tuple(node_labels_per_graph[i]),
            class_label=class_map[raw_classes[i]],
        )
        for i in range(num_graphs)
    ]
    return GraphDataset(
        graphs=graphs,
        num_classes=len(class_map),
        num_node_labels=len(label_map),
        name=name,
        class_map=class_map,
        label_map=label_map,
    )


def permute_node_ids(g: Graph, seed) -> Graph:
    """Return an isomorphic copy of ``g`` under a uniformly random node permutation.

    ``seed`` may be an int, a sequence of ints, or a ``numpy`` Generator.  The
    permutation maps old id ``v`` to new id ``perm[v]``; node labels move with
    their nodes and the class label is unchanged.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    new_labels = [0] * g.n
    for v in range(g.n):
        new_labels[perm[v]] = g.node_labels[v]
    new_edges = frozenset(
        (int(perm[u]), int(perm[v])) if perm[u] < perm[v] else (int(perm[v]), int(perm[u]))
        for u, v in g.edges
    )
    return Graph(n=g.n, edges=new_edges, node_labels=tuple(new_labels), class_label=g.class_label)


def permute_dataset(ds: GraphDataset, seed: int) -> GraphDataset:
    """Permute every graph's node ids once, with per-graph seeds derived from ``seed``."""
    graphs = [permute_node_ids(g, np.random.default_rng([seed, i])) for i, g in enumerate(ds.graphs)]
    return GraphDataset(
        graphs=graphs,
        num_classes=ds.num_classes,
        num_node_labels=ds.num_node_labels,
        name=ds.name,
        class_map=dict(ds.class_map),
        label_map=dict(ds.label_map),
    )


def one_hot(grids, d: int) -> np.ndarray:
    """Expand label grids to float64 one-hot tensors with ``d + 1`` channels.

    Label ``d`` marks padding and maps to the extra last channel, so real
    labels are never polluted by padding.
    """
    grids = np.asarray(grids)
    if grids.size and not 0 <= grids.min() <= grids.max() <= d:
        raise ValueError(
            f"labels span [{grids.min()}, {grids.max()}], outside [0, {d}] (label {d} is padding)"
        )
    return np.eye(d + 1)[grids]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def dataset_checksums(root: str, name: str) -> dict:
    """sha256 hex digest of each TU file of one dataset, keyed by file name."""
    base = resolve_dataset_dir(root, name)
    sums = {}
    for suffix in ("A", "graph_indicator", "graph_labels", "node_labels"):
        path = os.path.join(base, f"{name}_{suffix}.txt")
        if os.path.isfile(path):
            sums[os.path.basename(path)] = _sha256(path)
    return sums


def dataset_digest(root: str, name: str) -> bytes:
    """One 32-byte sha256 over :func:`dataset_checksums`; changes whenever any
    source file of the dataset does."""
    sums = dataset_checksums(root, name)
    text = "".join(f"{fname} {sums[fname]}\n" for fname in sorted(sums))
    return hashlib.sha256(text.encode("utf-8")).digest()
