"""Fixed-size tensor extraction from graphs.

Every graph becomes a ``w x k`` grid of node labels: the first ``w`` nodes
of the order :func:`graphcaps.labelling.rank_nodes` returns for the run's
labelling are the anchors, each anchor gathers its ``k`` hop-closest
neighbours into a receptive field ordered by (hop, place in that same order),
and each member contributes its label (padding is stored as label ``d``).
:func:`graphcaps.data.one_hot` expands grids to the uint8 ``w x k x (d+1)``
tensors the models take, each batch cast to their float32 parameter dtype.

Extraction works on chunks of graphs (:func:`_grids`), each a slice of the
dataset's CSR (:class:`graphcaps.data.Graphs`) and of its label array: after
each graph's canonical search, :func:`graphcaps.labelling.receptive_fields`
ranks the whole chunk and builds every anchor's field in numpy passes over
it, and :func:`graph_to_tensor` is a chunk of one.  A grid does not depend
on the chunk it was computed in.  The canonical order depends only on the
graph, so :func:`tensorize_dataset` takes the orders of an earlier
extraction in place of the search, and returns the orders it used.  Its
chunks run on :func:`graphcaps._pool.fork_map`, and a dead worker names its
chunk's graphs.
"""

from __future__ import annotations

import functools

import numpy as np

from ._pool import fork_map, processes
from .data import Graphs
from .labelling import (CapacityError, canonical_order, check_labelling, lane_groups,
                        receptive_fields)

# Grids are uint16 and padding is stored as d, so d may not exceed this.
MAX_LABELS = np.iinfo(np.uint16).max


def _grids(item, w: int, k: int, d: int, labelling: str) -> tuple:
    """The ``(len(graphs), w, k)`` uint16 label grids of the :class:`Graphs`
    in ``item = (first, graphs, orders)``, computed for the whole chunk at
    once, and the graphs' canonical orders.  ``orders`` gives them, or is None to search
    them; when ``first`` is not None a labelling :class:`CapacityError` names
    the graph's dataset index ``first + i``.

    The chunk gets its anchors and fields from the orders (see
    :func:`graphcaps.labelling.receptive_fields`).
    """
    first, graphs, orders = item
    check_labelling(labelling)
    if w < 1:
        raise ValueError("w must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if d > MAX_LABELS:
        raise ValueError(f"{d} node labels exceed the grid limit of {MAX_LABELS}")
    bad = graphs.labels[(graphs.labels < 0) | (graphs.labels >= d)]
    if bad.size:
        raise ValueError(f"node label {bad[0]} outside [0, {d})")
    if orders is None:
        orders = []
        for i, g in enumerate(graphs):
            try:
                orders.append(canonical_order(g))
            except CapacityError as exc:
                if first is None:
                    raise
                raise CapacityError(f"graph {first + i}: {exc}") from exc
    graph, slot, fields = receptive_fields(graphs, orders, labelling, w, k)
    # PAD (-1) indexes the appended last entry, the padding label d
    label_of = np.append(graphs.labels, d).astype(np.uint16)
    out = np.full((len(graphs), w, k), d, dtype=np.uint16)
    out[graph, slot] = label_of[fields]
    return out, orders


def graph_to_tensor(
    g: Graphs,
    w: int,
    k: int,
    d: int,
    labelling: str = "bc",
) -> np.ndarray:
    """Full extraction for the graph ``g``: node order under ``labelling`` (one of
    :data:`graphcaps.labelling.LABELLINGS`), anchor sequence, receptive
    fields ordered by that same order, member labels.  Returns a ``(w, k)``
    uint16 label grid in which padding is stored as ``d``.  A chunk of one
    graph (see :func:`_grids`)."""
    return _grids((None, g, None), w, k, d, labelling)[0][0]


def default_width(sizes) -> int:
    """w defaults to the rounded average graph size of a dataset whose graphs
    have ``sizes`` nodes."""
    mean = float(np.mean(sizes))
    return max(1, int(np.floor(mean + 0.5)))


def tensorize_dataset(
    ds: Graphs,
    w: int,
    k: int = 10,
    labelling: str = "bc",
    jobs: int = 1,
    orders: list | None = None,
) -> tuple:
    """``(grids, orders)``: the ``(n, w, k)`` label grids of every graph in
    dataset order, and the list of every graph's canonical order.  Given
    ``orders`` (such a list, from any earlier extraction of these graphs),
    no graph is searched.  Node labels are ``0`` to ``d - 1``, with ``d``
    one past the largest, as a loaded dataset numbers them.

    Graphs go in chunks of consecutive graphs of at most
    :data:`graphcaps.labelling.CELLS` cells (``n*n`` per graph) and at most
    one worker's share; with ``jobs > 1`` the chunks run in forked worker
    processes, which inherit the graphs and orders and are sent each chunk's
    slice, and each chunk's results go back to its place.  A grid depends on
    neither the chunks, nor the workers, nor whether its order was searched
    or given."""
    groups = list(lane_groups(ds.sizes ** 2, processes(jobs)))
    extract = functools.partial(_grids, w=w, k=k, d=int(ds.labels.max()) + 1,
                                labelling=labelling)
    chunks = dict(fork_map(_chunk_grids, groups, jobs, extract, ds, orders,
                           name=lambda group: f"graphs {group.start}-{group.stop - 1}"))
    grids, found = zip(*(chunks[i] for i in range(len(groups))))
    return np.concatenate(grids), [order for chunk in found for order in chunk]


def _chunk_grids(extract, graphs, orders, group: slice) -> tuple:
    """``extract`` of the chunk of ``graphs`` (and of their ``orders``, when
    given) in the slice ``group``: a worker is sent only the slice."""
    return extract((group.start, graphs[group], None if orders is None else orders[group]))


def padded_anchor_count(ds: Graphs, w: int) -> int:
    """How many PAD anchors tensorization will introduce at width w."""
    return int(np.maximum(w - ds.sizes, 0).sum())
