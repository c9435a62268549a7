"""Fixed-size tensor extraction from graphs.

Every graph becomes a ``w x k`` grid of node labels: the first ``w`` nodes
of the order :func:`graphcaps.labelling.rank_nodes` returns for the run's
labelling are the anchors, each anchor gathers its ``k`` hop-closest
neighbours into a receptive field ordered by (hop, place in that same order),
and each member contributes its label (padding is stored as label ``d``).
:func:`graphcaps.data.one_hot` expands grids to the ``w x k x (d+1)`` tensors
the models take.
"""

from __future__ import annotations

import functools
import multiprocessing

import numpy as np

from .data import PAD, Graph, GraphDataset
from .labelling import CapacityError, rank_nodes

# Grids are uint16 and padding is stored as d, so d may not exceed this.
MAX_LABELS = np.iinfo(np.uint16).max


def node_sequence(order, w: int) -> list:
    """The first w nodes of the ranked ``order``, padded with PAD when the
    graph has fewer than w nodes."""
    if w < 1:
        raise ValueError("w must be >= 1")
    top = [int(v) for v in order[:w]]
    return top + [PAD] * (w - len(top))


def assemble_neighbourhood(g: Graph, anchor: int, k: int) -> list:
    """BFS from the anchor, expanding whole hop-rings until >= k candidates.

    Returns ``[(node, hop), ...]`` including the anchor at hop 0.  The final
    ring may overshoot k; trimming is normalization's job.
    """
    if not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} not a node of the graph")
    adj = g.adjacency()
    seen = {anchor}
    out = [(anchor, 0)]
    ring = [anchor]
    hop = 0
    while len(out) < k and ring:
        hop += 1
        nxt = []
        for v in ring:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        out.extend((u, hop) for u in nxt)
        ring = nxt
    return out


def normalize_receptive_field(candidates, place, k: int) -> list:
    """Order candidates by (hop asc, ``place[node]`` asc), where ``place``
    maps each node to its position in the ranked order; keep the first k, pad
    with PAD.  The anchor (hop 0) comes first."""
    ordered = sorted(candidates, key=lambda c: (c[1], place[c[0]]))
    members = [v for v, _ in ordered[:k]]
    return members + [PAD] * (k - len(members))


def graph_to_tensor(
    g: Graph,
    w: int,
    k: int,
    d: int,
    labelling: str = "bc",
) -> np.ndarray:
    """Full extraction for one graph: node order under ``labelling`` (one of
    :data:`graphcaps.labelling.LABELLINGS`), anchor sequence, receptive
    fields ordered by that same order, member labels.  Returns a ``(w, k)``
    uint16 label grid in which padding is stored as ``d``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if d > MAX_LABELS:
        raise ValueError(f"{d} node labels exceed the grid limit of {MAX_LABELS}")
    bad = [lab for lab in g.node_labels if not 0 <= lab < d]
    if bad:
        raise ValueError(f"node label {bad[0]} outside [0, {d})")
    order = rank_nodes(g, labelling)
    place = np.argsort(order).tolist()  # each node's position in the order
    rows = [
        [PAD] * k if anchor == PAD
        else normalize_receptive_field(assemble_neighbourhood(g, anchor, k), place, k)
        for anchor in node_sequence(order, w)
    ]
    # PAD (-1) indexes the appended last entry, the padding label d
    label_of = np.array(g.node_labels + (d,), dtype=np.uint16)
    return label_of[np.array(rows, dtype=np.int64)]


def default_width(ds: GraphDataset) -> int:
    """w defaults to the rounded average graph size of the dataset."""
    mean = float(np.mean([g.n for g in ds.graphs]))
    return max(1, int(np.floor(mean + 0.5)))


def tensorize_dataset(
    ds: GraphDataset,
    w: int,
    k: int = 10,
    labelling: str = "bc",
    jobs: int = 1,
) -> np.ndarray:
    """Label grids for every graph, stacked to ``(n, w, k)`` in dataset order.
    Extraction is per-graph independent; with ``jobs > 1`` it runs in worker
    processes, and results come back in input order, so output never depends
    on scheduling order."""
    extract = functools.partial(_indexed_graph_to_tensor, w=w, k=k, d=ds.num_node_labels,
                                labelling=labelling)
    return np.stack(list(_fork_map(extract, list(enumerate(ds.graphs)), jobs)))


def _indexed_graph_to_tensor(item, **kwargs) -> np.ndarray:
    """:func:`graph_to_tensor` of the graph in ``item = (index, graph)``; a
    labelling :class:`CapacityError` names the graph's dataset index."""
    i, g = item
    try:
        return graph_to_tensor(g, **kwargs)
    except CapacityError as exc:
        raise CapacityError(f"graph {i}: {exc}") from exc


def _fork_map(fn, items, jobs: int):
    """Yield ``fn(item)`` for each item in input order, from
    ``min(jobs, len(items))`` forked workers when that is above 1 and fork
    exists, else serially."""
    jobs = min(jobs, len(items))
    if jobs > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            yield from pool.imap(fn, items, chunksize=max(1, len(items) // (4 * jobs)))
    else:
        yield from map(fn, items)


def padded_anchor_count(ds: GraphDataset, w: int) -> int:
    """How many PAD anchors tensorization will introduce at width w."""
    return sum(max(0, w - g.n) for g in ds.graphs)
