"""Shared test fixtures: tiny graphs, TU-format file writers, a synthetic
two-class benchmark, cache-file forgeries, kernel mutations, a time limit for
calls that could hang, the traced memory peak of a call, a NaN gradient
injected into one training step, and the serial per-graph references that
the batched extraction must match bit for bit.  The random graph generator
and the selftest oracles live in :mod:`graphcaps.selftest`."""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import signal
import struct
import sys
import textwrap
import tracemalloc

import numpy as np

from graphcaps.autodiff import Tensor
from graphcaps.data import Graphs, graph, load_tu_dataset, read_labels
from graphcaps.labelling import _neighbour_lists, canonical_order
from graphcaps.selftest import disjoint_union, run_suite

__all__ = [
    "triangle",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "disjoint_union",
    "join",
    "load",
    "write_tu_files",
    "synthetic_dataset_graphs",
    "write_v2_cache",
    "flip_grid_byte",
    "mutate",
    "mutation_target",
    "time_limit",
    "traced_peak",
    "poison_gradient",
    "healthy_suite",
    "diamond_chain",
    "scalar_betweenness",
    "reference_grid",
]


def triangle(labels=(0, 0, 0), cls=0) -> Graphs:
    return graph(3, [(0, 1), (1, 2), (0, 2)], labels, cls)


def path_graph(n: int, labels=None, cls=0) -> Graphs:
    return graph(n, [(i, i + 1) for i in range(n - 1)], [0] * n if labels is None else labels,
                 cls)


def star_graph(leaves: int, cls=0) -> Graphs:
    return graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)], [0] * (leaves + 1), cls)


def cycle_graph(n: int, cls=0) -> Graphs:
    return graph(n, [(i, (i + 1) % n) for i in range(n)], [0] * n, cls)


def join(graphs) -> Graphs:
    """The :class:`Graphs` of ``graphs`` side by side, in the order given:
    each one's arrays concatenated, its node ids and CSR entries offset by
    those of the graphs before it."""
    nodes = np.cumsum([0] + [len(g.labels) for g in graphs])
    entries = np.cumsum([0] + [len(g.indices) for g in graphs])
    return Graphs(
        np.concatenate([g.indptr[:-1] + e for g, e in zip(graphs, entries)] + [entries[-1:]]),
        np.concatenate([g.indices + n for g, n in zip(graphs, nodes)]),
        np.concatenate([g.labels for g in graphs]),
        np.concatenate([g.offsets[:-1] + n for g, n in zip(graphs, nodes)] + [nodes[-1:]]),
        np.concatenate([g.classes for g in graphs]),
    )


def load(root: str, name: str) -> Graphs:
    """The graphs of dataset ``name`` under ``root``, loaded on its label files."""
    return load_tu_dataset(root, name, read_labels(root, name))


def write_tu_files(root: str, name: str, graphs) -> str:
    """Write graphs in the exact TU-Dortmund flat-file layout under
    ``root/name/``.  Edges are emitted in both directions, 1-based."""
    base = os.path.join(root, name)
    os.makedirs(base, exist_ok=True)
    offsets = np.cumsum([0] + [len(g.labels) for g in graphs])
    with open(os.path.join(base, f"{name}_A.txt"), "w") as fh:
        for gi, g in enumerate(graphs):
            off = offsets[gi]
            for u, v in g.edges().tolist():
                fh.write(f"{off + u + 1}, {off + v + 1}\n")
                fh.write(f"{off + v + 1}, {off + u + 1}\n")
    with open(os.path.join(base, f"{name}_graph_indicator.txt"), "w") as fh:
        for gi, g in enumerate(graphs):
            fh.writelines(f"{gi + 1}\n" for _ in range(len(g.labels)))
    with open(os.path.join(base, f"{name}_graph_labels.txt"), "w") as fh:
        fh.writelines(f"{g.classes[0]}\n" for g in graphs)
    with open(os.path.join(base, f"{name}_node_labels.txt"), "w") as fh:
        for g in graphs:
            fh.writelines(f"{lab}\n" for lab in g.labels.tolist())
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
        graphs.append(graph(n, edges, labels, cls))
    return graphs


def write_v2_cache(path: str, grids, labels, d: int, digest: bytes) -> None:
    """A tensor cache file in the retired version-2 byte layout: a 72-byte
    header (magic, version, w, k, d, count, procedure, flags, reserved, seed,
    dataset sha256), then int32 class labels and uint16 grids."""
    count, w, k = grids.shape
    header = struct.pack("<8sIIIIIBBHq32s", b"GCTENSR\0", 2, w, k, d, count, 0, 0, 0, 1, digest)
    with open(path, "wb") as fh:
        fh.write(header + np.asarray(labels, "<i4").tobytes() + np.asarray(grids, "<u2").tobytes())


def _edit_member(path: str, member: str, edit) -> None:
    """Call ``edit(blob, at)`` on the bytes of a tensor cache archive, ``at``
    the offset of the first value stored in ``member``, and write the blob
    back, leaving the zip structure intact."""
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    npy = blob.index(b"\x93NUMPY", blob.index(f"{member}.npy".encode()))
    header_len = int.from_bytes(blob[npy + 8:npy + 10], "little")  # npy format 1.0
    edit(blob, npy + 10 + header_len)
    with open(path, "wb") as fh:
        fh.write(blob)


def flip_grid_byte(path: str) -> None:
    """Flip the low bit of the first label stored in the ``grids`` member of
    a tensor cache archive."""
    def flip(blob, at):
        blob[at] ^= 1

    _edit_member(path, "grids", flip)


def swap_first_orders(path: str) -> None:
    """Swap the first two uint16 values stored in the ``orders`` member of an
    orders file: the first graph's order stays a permutation, and only the
    member's CRC-32 tells."""
    def swap(blob, at):
        blob[at:at + 2], blob[at + 2:at + 4] = blob[at + 2:at + 4], blob[at:at + 2]

    _edit_member(path, "orders", swap)


def count_calls(monkeypatch, *fns) -> dict:
    """Calls of each of ``fns`` by name, counted from every graphcaps module
    that holds the function, since some callers import it by name.  Only
    calls in this process count."""
    counts = {}
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        counts[fn.__name__] = 0
        for name, module in list(sys.modules.items()):
            if name.startswith("graphcaps") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return counts


def mutation_target(module, name: str) -> tuple:
    """``(owner, attr, original, source)`` of the function ``module.name``, or
    of the method ``module.Class.attr`` when ``name`` is ``"Class.attr"`` (or
    of a class the module imports, ``"zipfile.ZipExtFile.attr"``); ``owner``
    is None for a function, and ``source`` is dedented."""
    owner, _, attr = name.rpartition(".")
    owner = functools.reduce(getattr, owner.split("."), module) if owner else None
    original = getattr(owner or module, attr)
    return owner, attr, original, textwrap.dedent(inspect.getsource(original))


def mutate(monkeypatch, module, name: str, expression: str, mutant: str) -> None:
    """Break the target of :func:`mutation_target` by rewriting the one
    occurrence of ``expression`` in its source to ``mutant``.  The rewrite is
    compiled against the globals of the module that defines it.  A method is
    patched on its class; a function into every graphcaps module that holds
    it, since some callers import it by name."""
    owner, attr, original, source = mutation_target(module, name)
    assert source.count(expression) == 1, f"{expression!r} is not one expression of {name}"
    home, scope = sys.modules[original.__module__], {}
    exec(compile(source.replace(expression, mutant), home.__file__, "exec"), vars(home), scope)
    if owner:
        monkeypatch.setattr(owner, attr, scope[attr])
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("graphcaps") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, scope[name])


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``, so a
    call that would wait for ever fails its test instead.  SIGALRM reaches
    the main thread only; forked children inherit no pending alarm."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def traced_peak(fn) -> int:
    """The peak bytes that ``tracemalloc`` traces while ``fn()`` runs (numpy
    reports its array buffers to it).  Allocations a first call makes once
    per process, such as BLAS buffers, count; call ``fn`` once before to keep
    them out."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def poison_gradient(model, name: str, at_call: int) -> None:
    """Make the ``at_call``-th call (from 0) of ``model.loss_batch`` return
    its loss plus a zero whose backward adds NaN to the gradient of the
    parameter ``name``: the loss stays finite, and only that gradient is not."""
    loss_batch, calls = model.loss_batch, []

    def poisoned(x, y, rng=None):
        loss, parts = loss_batch(x, y, rng=rng)
        calls.append(None)
        if len(calls) - 1 == at_call:
            p = model.params[name]
            nan = np.full(p.data.shape, np.nan, p.data.dtype)
            loss = loss + Tensor._make(np.zeros((), loss.data.dtype), (p,),
                                       lambda g: p._accumulate(nan))
        return loss, parts

    model.loss_batch = poisoned


# Each selftest suite's (failures, detail) on the unmutated build, run once
# per test session: the acceptance criteria report it, and each mutation test
# checks it before breaking a kernel.
healthy_suite = functools.lru_cache(maxsize=None)(run_suite)


def diamond_chain(diamonds: int) -> Graphs:
    """``diamonds`` 4-cycles joined end to end at opposite corners: 2**diamonds
    shortest paths join the two ends."""
    edges = set()
    for i in range(diamonds):
        a = 3 * i
        edges.update({(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)})
    n = 3 * diamonds + 1
    return graph(n, edges, [0] * n)


def scalar_betweenness(g: Graphs) -> np.ndarray:
    """Unnormalized betweenness by Brandes' single-source accumulation
    (Brandes 2001), one source at a time in Python ints and floats: the serial
    reference whose float order the batched passes keep."""
    adj = _neighbour_lists(g)
    n = len(g.labels)
    bc = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        order = [s]  # the BFS queue, walked by index, is the visit order
        for v in order:
            dw = dist[v] + 1
            sv = sigma[v]
            for w in adj[v]:
                d = dist[w]
                if d < 0:
                    dist[w] = dw
                    order.append(w)
                    sigma[w] = sv
                elif d == dw:
                    sigma[w] += sv
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            dv = dist[w] - 1
            for v in adj[w]:
                if dist[v] == dv:
                    delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    # each unordered pair was counted from both endpoints
    return np.array(bc) / 2.0


def reference_grid(g: Graphs, w: int, k: int, d: int, labelling: str) -> np.ndarray:
    """The ``(w, k)`` label grid of ``g`` by serial per-graph steps: the
    canonical order; under ``bc`` a stable sort by :func:`scalar_betweenness`
    of the canonically relabelled graph, descending; then for each of the
    first ``w`` nodes a BFS that takes whole hop rings until it holds ``k``
    nodes, sorted by (hop, place in the order) and cut to ``k``."""
    order = canonical_order(g).tolist()
    if labelling == "bc":
        pos = {v: i for i, v in enumerate(order)}
        h = graph(len(order), [(pos[u], pos[v]) for u, v in g.edges().tolist()], [0] * len(order))
        order = [order[i] for i in np.argsort(-scalar_betweenness(h), kind="stable")]
    place = {v: i for i, v in enumerate(order)}
    adj = _neighbour_lists(g)
    grid = np.full((w, k), d, dtype=np.uint16)
    for row, anchor in enumerate(order[:w]):
        seen, ring, found = {anchor}, [anchor], [(0, place[anchor], anchor)]
        hop = 0
        while len(found) < k and ring:
            hop += 1
            nxt = []
            for v in ring:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            found += [(hop, place[u], u) for u in nxt]
            ring = nxt
        members = [u for *_, u in sorted(found)[:k]]
        grid[row, :len(members)] = g.labels[members]
    return grid
