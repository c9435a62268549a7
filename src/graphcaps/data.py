"""Loading and preprocessing of labelled-graph classification benchmarks.

Datasets use the TU-Dortmund flat-file layout: ``<name>_A.txt`` holds "u, v"
edge lines with 1-based global node ids, ``<name>_graph_indicator.txt`` maps
each node line to its graph id, and ``<name>_graph_labels.txt`` /
``<name>_node_labels.txt`` hold one integer per graph / node.  All indices are
re-mapped to contiguous 0-based ranges at load time.

A load reads the three label files into :class:`TuLabels`
(:func:`read_labels`), which is all a tensor cache hit needs, and on a miss
builds the edges on them into one :class:`Graphs` (:func:`load_tu_dataset`):
a CSR of every graph's nodes, their labels, the graph offsets and the
classes.  Extraction takes its chunks as slices of it.  A graph built by hand
is a :class:`Graphs` of one graph (:func:`graph`).
"""

from __future__ import annotations

import functools
import hashlib
import os
import warnings
from dataclasses import dataclass

import numpy as np

# Sentinel for dummy nodes introduced when a graph or neighbourhood is smaller
# than the requested geometry.  Stored as label d in label grids, which one_hot
# maps to the extra (d+1)-th channel.
PAD = -1


class DatasetFormatError(ValueError):
    """A dataset file exists but does not parse as TU-Dortmund format."""


@dataclass(eq=False)
class Graphs:
    """Undirected labelled graphs as one CSR: a dataset, a chunk of one, or a
    single graph, which is the case of one.

    Graph ``i`` holds the nodes ``offsets[i]`` to ``offsets[i + 1] - 1`` and
    has the class ``classes[i]``.  Node ``v`` has the label ``labels[v]``, a
    categorical int, and the neighbours ``indices[indptr[v]:indptr[v + 1]]``,
    ascending and all in its own graph.  An edge is listed once at each of
    its two ends, and no node is its own neighbour.  Every array is int64.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    classes: np.ndarray

    def __len__(self):
        return len(self.classes)

    @property
    def sizes(self) -> np.ndarray:
        """Each graph's node count."""
        return np.diff(self.offsets)

    def __getitem__(self, key) -> Graphs:
        """Graph ``key``, or the graphs in the slice ``key`` (of step 1),
        with their nodes counted from 0: a slice of each array, less the
        first node's offset."""
        span = range(len(self))[key]
        first, stop = (span, span + 1) if isinstance(span, int) else (span.start, span.stop)
        lo, hi = self.offsets[first], self.offsets[stop]
        return Graphs(self.indptr[lo:hi + 1] - self.indptr[lo],
                      self.indices[self.indptr[lo]:self.indptr[hi]] - lo, self.labels[lo:hi],
                      self.offsets[first:stop + 1] - lo, self.classes[first:stop])

    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` edges ``(u, v)`` with ``u < v``, in ascending order."""
        u = np.repeat(np.arange(len(self.labels)), self.indptr[1:] - self.indptr[:-1])
        keep = u < self.indices
        return np.array([u[keep], self.indices[keep]]).T


def _csr(n: int, u, v) -> tuple:
    """``(indptr, indices)`` of the undirected graph on the nodes ``0`` to
    ``n - 1`` whose edges join ``u[i]`` and ``v[i]``: each neighbour list
    ascending, and an edge given more than once, in either direction, listed
    once at each end.  Duplicates go by a sort and a mask: ``np.unique``
    hashes int64 keys in recent numpy, which is many times slower on a large
    dataset."""
    pairs = np.sort(np.concatenate([u * n + v, v * n + u]))
    pairs = pairs[np.concatenate([pairs[:1] >= 0, pairs[1:] != pairs[:-1]])]  # first, if any
    return np.concatenate([[0], np.cumsum(np.bincount(pairs // n, minlength=n))]), pairs % n


def graph(n: int, edges, labels, cls: int = 0) -> Graphs:
    """The graph of ``n`` nodes labelled ``labels``, of class ``cls``, whose
    undirected ``edges`` are ``(u, v)`` pairs in either order; a pair given
    more than once is one edge."""
    if n <= 0:
        raise ValueError(f"graph must have at least one node, got n={n}")
    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    bad = np.flatnonzero((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n))
    if bad.size:  # name the first bad edge
        u, v = u[bad[0]], v[bad[0]]
        raise ValueError(f"self-loop on node {u}" if u == v
                         else f"edge ({u}, {v}) references a node outside [0, {n})")
    labels = np.array(labels, dtype=np.int64)
    if len(labels) != n:
        raise ValueError(f"expected {n} node labels, got {len(labels)}")
    return Graphs(*_csr(n, u, v), labels, np.array([0, n]), np.array([cls], dtype=np.int64))


@dataclass
class TuLabels:
    """What the graph-indicator, graph-label and node-label files of a TU
    dataset say, without its edges: each node's graph and label, each
    graph's node count and class, all 0-based, and the numbers of classes and
    of node labels.  A tensor cache hit needs nothing more (see
    :func:`graphcaps.experiment.tensorize_cached`), and a miss builds the
    graphs on it (:func:`load_tu_dataset`)."""

    node_graph: np.ndarray  # int64 graph of each node, in file order
    node_labels: np.ndarray  # int64 label of each node, grouped by graph
    sizes: np.ndarray  # int64 node count of each graph
    classes: np.ndarray  # int64 class of each graph
    num_classes: int
    num_node_labels: int

    def __len__(self):
        return len(self.sizes)


def _read_text(path: str) -> str:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _int64(text: str):
    """``int(text)`` when that is an integer that fits in int64, else None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if -(2**63) <= value < 2**63 else None


# The characters of the plain layout that :func:`_loadtxt_rows` reads, for
# ``str.translate`` to delete.
_PLAIN = str.maketrans("", "", "0123456789+-, \t\n")


def _loadtxt_rows(path: str, text: str, width: int):
    """The ``(rows, width)`` int64 values of ``path``, whose text is
    ``text``, read by numpy's C reader; None when the text is not in the
    plain layout that TU files use, or when ``np.loadtxt`` refuses it, warns
    about it or reads another number of columns.

    The plain layout has only digits, signs, spaces, tabs, commas and
    newlines.  Within it, the rows that ``np.loadtxt`` reads are the
    non-blank lines that :func:`_read_lines` reads, to the same values.  Both
    read the file with universal newlines, so ``\\r\\n`` and a lone ``\\r``
    end a line for both."""
    if text.translate(_PLAIN):
        return None
    try:
        # numpy 1.x parses a value outside int64 as a float, warning only
        # with a DeprecationWarning; an empty file draws a UserWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None, encoding="utf-8",
                                delimiter="," if width == 2 else None)
    except (ValueError, Warning):
        return None
    return values if values.shape[1] == width else None


def _line_number(text: str, row: int) -> int:
    """The 1-based line number of the ``row``-th non-blank line of ``text``."""
    return [i for i, line in enumerate(text.splitlines(), 1) if line.strip()][row]


def _read_rows(path: str, width: int) -> tuple:
    """Parse a file that holds ``width`` integers on each non-blank line.
    With ``width`` 1 a line is one integer; with 2 its values are separated
    by one comma or by whitespace.  Returns the ``(rows, width)`` int64
    values, a function from a row to its 1-based line number, and the format
    checks that rows fail (see :func:`_raise_first`), for the caller to raise
    in turn.  A text in the plain layout goes through :func:`_loadtxt_rows`;
    any other, and any that ``np.loadtxt`` refuses, through
    :func:`_read_lines`."""
    text = _read_text(path)
    values = _loadtxt_rows(path, text, width)
    if values is None:
        return _read_lines(text, width)
    return values, functools.partial(_line_number, text), []


def _read_lines(text: str, width: int) -> tuple:
    """:func:`_read_rows` of ``text`` line by line, with Python's ``int``: the
    reference reader, and the only one that names a bad line.  0 stands in
    for a value that does not parse, and an empty field makes a wrong line."""
    lines = text.splitlines()
    kept = [i for i, line in enumerate(lines) if line.strip()]
    fields = [[lines[i]] if width == 1
              else [f.strip() for f in lines[i].split(",")] if "," in lines[i]
              else lines[i].split() for i in kept]
    wrong = np.array([len(row) != width or not all(row) for row in fields], dtype=bool)
    parsed = [[0] * width if w else list(map(_int64, row)) for row, w in zip(fields, wrong)]
    bad = np.array([[v is None for v in row] for row in parsed], dtype=bool).reshape(-1, width)
    values = np.array([[v or 0 for v in row] for row in parsed], dtype=np.int64).reshape(-1, width)
    checks = [(wrong, lambda row: f"expected 'u, v', got {lines[kept[row]]!r}")]
    checks += [(bad[:, j], lambda row, j=j: f"expected an integer, got {fields[row][j]!r}")
               for j in range(width)]
    return values, lambda row: kept[row] + 1, checks


def _raise_first(path: str, lineno, checks) -> None:
    """Raise for the earliest row that fails one of ``checks``; do nothing
    when none does.  ``checks`` are ``(bad, describe)`` pairs in the order a
    row's checks run: ``bad`` masks the failing rows, and ``describe(row)``
    says what is wrong with a row, which is line ``lineno(row)`` of
    ``path``."""
    failing = [int(np.argmax(bad)) for bad, _ in checks if bad.any()]
    if failing:
        row = min(failing)
        describe = next(describe for bad, describe in checks if bad[row])
        raise DatasetFormatError(f"{path}:{lineno(row)}: {describe(row)}")


def resolve_dataset_dir(root: str, name: str) -> str:
    """Accept both ``root/<name>/<name>_A.txt`` and ``root/<name>_A.txt`` layouts."""
    sub = os.path.join(root, name)
    if os.path.isfile(os.path.join(sub, f"{name}_A.txt")):
        return sub
    return root


def load_tu_dataset(root: str, name: str, labels: TuLabels) -> Graphs:
    """Load the graphs of one benchmark dataset from TU-Dortmund flat files
    under ``root``, whose label files say ``labels`` (:func:`read_labels`).

    Returns one :class:`Graphs`: the nodes grouped by graph, in file order
    within each, with 0-based labels and classes, and the edges
    deduplicated and symmetrized.  The edge file is parsed by
    :func:`_read_rows` and checked in whole-array operations; a malformed
    line is named as ``path:lineno``.
    """
    a_path = os.path.join(resolve_dataset_dir(root, name), f"{name}_A.txt")
    node_graph = labels.node_graph
    n_nodes = len(node_graph)

    uv, lineno, checks = _read_rows(a_path, 2)
    u, v = uv[:, 0], uv[:, 1]
    known = (1 <= u) & (u <= n_nodes) & (1 <= v) & (v <= n_nodes)
    gu = node_graph[np.where(known, u - 1, 0)]
    gv = node_graph[np.where(known, v - 1, 0)]
    _raise_first(a_path, lineno, checks + [
        (~known, lambda row: f"edge ({u[row]}, {v[row]}) references an unknown node"),
        (gu != gv, lambda row: f"edge ({u[row]}, {v[row]}) crosses graphs {gu[row]} and {gv[row]}"),
        (u == v, lambda row: f"self-loop on node {u[row]}"),
    ])

    # a node's id is its place among the nodes grouped by graph
    node_id = np.empty(n_nodes, dtype=np.int64)
    node_id[np.argsort(node_graph, kind="stable")] = np.arange(n_nodes)
    return Graphs(*_csr(n_nodes, node_id[u - 1], node_id[v - 1]), labels.node_labels,
                  np.concatenate([[0], np.cumsum(labels.sizes)]), labels.classes)


def read_labels(root: str, name: str) -> TuLabels:
    """Parse and check the graph-indicator, graph-label and node-label files
    of dataset ``name`` under ``root``, the first half of a load (see
    :func:`load_tu_dataset`)."""
    base = resolve_dataset_dir(root, name)
    ind_path = os.path.join(base, f"{name}_graph_indicator.txt")
    gl_path = os.path.join(base, f"{name}_graph_labels.txt")
    nl_path = os.path.join(base, f"{name}_node_labels.txt")

    graph_of_node, lineno, checks = _read_rows(ind_path, 1)
    _raise_first(ind_path, lineno, checks)
    if not len(graph_of_node):
        raise DatasetFormatError(f"{ind_path}: no nodes")
    # graph index of each node; every graph id in the file has a node
    n_nodes = len(graph_of_node)
    _, node_graph = np.unique(graph_of_node[:, 0], return_inverse=True)
    num_graphs = int(node_graph.max()) + 1

    raw_classes, lineno, checks = _read_rows(gl_path, 1)
    if len(raw_classes) > num_graphs:
        raise DatasetFormatError(
            f"{gl_path}: {len(raw_classes)} class labels but only {num_graphs} graphs "
            "have nodes (graph with zero nodes)"
        )
    if len(raw_classes) < num_graphs:
        raise DatasetFormatError(
            f"{gl_path}: {len(raw_classes)} class labels for {num_graphs} graphs"
        )
    _raise_first(gl_path, lineno, checks)
    class_values, class_of = np.unique(raw_classes[:, 0], return_inverse=True)

    raw_labels, lineno, checks = _read_rows(nl_path, 1)
    if len(raw_labels) != n_nodes:
        raise DatasetFormatError(f"{nl_path}: {len(raw_labels)} node labels for {n_nodes} nodes")
    _raise_first(nl_path, lineno, checks)
    label_values, label_of = np.unique(raw_labels[:, 0], return_inverse=True)

    return TuLabels(node_graph=node_graph,
                    node_labels=label_of.astype(np.int64)[np.argsort(node_graph, kind="stable")],
                    sizes=np.bincount(node_graph, minlength=num_graphs),
                    classes=class_of.astype(np.int64), num_classes=len(class_values),
                    num_node_labels=len(label_values))


def permute_node_ids(g: Graphs, seed) -> Graphs:
    """Return an isomorphic copy of the graph ``g`` under a uniformly random
    node permutation.

    ``seed`` is anything ``numpy.random.default_rng`` takes: an int, a
    sequence of ints, or a Generator, which is used as it is.  The permutation
    maps old id ``v`` to new id ``perm[v]``; node labels move with their nodes
    and the class label is unchanged.
    """
    perm = np.random.default_rng(seed).permutation(len(g.labels))
    labels = np.empty_like(g.labels)
    labels[perm] = g.labels
    return graph(len(labels), perm[g.edges()], labels, g.classes[0])


def one_hot(grids, d: int) -> np.ndarray:
    """Expand label grids to C-contiguous uint8 one-hot tensors with ``d + 1``
    channels: a quarter of the bytes of float32, and the models cast each
    batch to their parameters' dtype as it enters.

    Label ``d`` marks padding and maps to the extra last channel, so real
    labels are never polluted by padding.
    """
    grids = np.asarray(grids)
    if grids.size and not 0 <= grids.min() <= grids.max() <= d:
        raise ValueError(
            f"labels span [{grids.min()}, {grids.max()}], outside [0, {d}] (label {d} is padding)"
        )
    return np.eye(d + 1, dtype=np.uint8)[grids]


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
