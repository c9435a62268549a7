"""Node rankings that drive node selection and ordering.

:data:`LABELLINGS` names the rankings a run can choose, and
:func:`rank_nodes` returns one node order under each: it picks a graph's
anchors and orders every receptive field.  Two building blocks serve them:
Brandes betweenness centrality and a canonical node ordering computed by
backtracking individualization-refinement with automorphism pruning.  Both
return plain numpy arrays, are pure functions of the input graph and are
deterministic, so rankings are reproducible bit-for-bit.

Graphs come as :class:`graphcaps.data.Graphs`, one CSR.  The canonical
search runs per graph, on Python lists cut from its neighbour slices.
Betweenness and receptive fields run for a chunk of graphs at once:
:class:`_Union` takes the chunk's CSR as one graph and :class:`_Bfs` runs a
level-synchronous BFS from many of their sources together.  :func:`_brandes`
accumulates every source's dependencies in the float order of the serial
single-source loop, so a score has the same bits whichever chunk computed
it, and :func:`_fields` reads each anchor's hop-closest nodes from a BFS of
the anchors.  :func:`receptive_fields` is the chunk-level entry point of
:mod:`graphcaps.tensorize`; :func:`rank_nodes` and
:func:`betweenness_centrality` are chunks of one graph.
"""

from __future__ import annotations

import numpy as np

from .data import PAD, Graphs

# Canonical labelling is exact but not NAUTY-fast; guard against inputs far
# beyond benchmark scale.
MAX_CANONICAL_NODES = 10_000
# The canonical search raises CapacityError after visiting this many nodes of
# its search tree, so that no input can keep it running.
MAX_SEARCH_NODES = 10_000
# The chunk-level passes hold at most this many (lane, node) cells at once
# (see _Bfs); a graph with more n*n cells than that runs its sources in groups.
CELLS = 1 << 16

# The node rankings a run may choose: betweenness centrality or the canonical
# order.  Every other module reads the names from here.
LABELLINGS = ("bc", "canonical")


class CapacityError(RuntimeError):
    """Input exceeds the configured size bound of an exact procedure."""


class _Union:
    """The graphs of one chunk, a :class:`graphcaps.data.Graphs`, as a single
    graph whose adjacency is the chunk's CSR.

    Graph ``i`` holds the union nodes ``off[i]`` to ``off[i] + size[i] - 1``.
    With ``orders``, its node ``order[j]`` becomes union node ``off[i] + j``,
    so that the chunk-level passes below scan each graph in that order: the
    CSR is renamed so and each neighbour list sorted ascending again.  ``ids``
    maps each union node back to its node in the chunk.
    """

    def __init__(self, graphs: Graphs, orders=None):
        self.size, self.off = graphs.sizes, graphs.offsets[:-1]
        self.graph = np.repeat(np.arange(len(graphs)), self.size)
        self.indptr, self.indices = graphs.indptr, graphs.indices
        total = self.graph.size
        self.ids = np.arange(total)
        if orders is not None:
            self.ids = np.concatenate(orders) + self.off[self.graph]
            renamed = np.empty(total, dtype=np.int64)
            renamed[self.ids] = np.arange(total)
            row, nbr = self.neighbours(self.ids)
            nbr = renamed[nbr]
            self.indices = nbr[np.argsort(row * total + nbr)]
            self.indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=total))])

    def neighbours(self, nodes):
        """(i, u) for every neighbour u of every ``nodes[i]``, in that order."""
        start = self.indptr[nodes]
        deg = self.indptr[nodes + 1] - start
        rep = np.repeat(np.arange(nodes.size), deg)
        at = np.arange(rep.size) + np.repeat(start - (np.cumsum(deg) - deg), deg)
        return rep, self.indices[at]


def lane_groups(cells, parts: int = 1):
    """Slices of consecutive lanes, each holding at most :data:`CELLS` cells
    and at most a ``1/parts`` share of them all; a lane that is larger on its
    own is a slice of its own.  ``cells`` gives each lane's cell count."""
    ends = np.cumsum(cells)
    if not ends.size:
        return
    budget = min(CELLS, -(-int(ends[-1]) // parts))
    start = 0
    while start < len(ends):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + budget, side="right")))
        yield slice(start, stop)
        start = stop


class _Bfs:
    """A level-synchronous BFS from many sources of a :class:`_Union` at once.

    Each source is a lane, and each (lane, node of the source's graph) pair
    a cell: lane ``i`` owns cells ``base[i]`` to ``base[i] + n - 1``, and
    node ``v`` is its cell ``shift[i] + v``.  ``sigma`` holds each cell's
    number of shortest paths from the source, exact: the int64 counts become
    Python ints before any could pass 2**63.  ``levels[h]`` holds the (lane,
    node) pairs at hop h, lane by lane, and within a lane in the order in
    which a serial BFS over ascending neighbour lists discovers them;
    ``found`` orders the cells of a hop that way.  ``edges[h]`` holds the
    (from, to) cells of every shortest-path edge into hop h.  With ``reach``,
    a lane stops after the first ring that brings it to ``reach`` nodes.
    """

    def __init__(self, union: _Union, sources, reach=None):
        self.sources = sources
        self.size = union.size[union.graph[sources]]
        self.base = np.cumsum(self.size) - self.size
        self.shift = self.base - union.off[union.graph[sources]]
        cells = int(self.size.sum())
        seen = np.zeros(cells, dtype=bool)
        self.sigma = np.zeros(cells, dtype=np.int64)
        self.found = np.full(cells, np.iinfo(np.int64).max)
        # the counts at one hop are sums of at most max-degree counts of the last
        limit = (2**63 - 1) // max(1, int(np.diff(union.indptr).max(initial=0)))
        lane, node = np.arange(sources.size), sources
        cell = self.shift + sources
        seen[cell], self.sigma[cell] = True, 1
        self.levels, self.edges = [(lane, node)], [None]
        reached = np.ones(sources.size, dtype=np.int64)
        while True:
            if reach is not None:
                on = reached[lane] < reach
                lane, node, cell = lane[on], node[on], cell[on]
            rep, nbr = union.neighbours(node)
            to = self.shift[lane][rep] + nbr
            keep = np.flatnonzero(~seen[to])
            if not keep.size:
                return
            frm, to = cell[rep[keep]], to[keep]
            if self.sigma.dtype != object and self.sigma[cell].max() > limit:
                self.sigma = self.sigma.astype(object)
            np.add.at(self.sigma, to, self.sigma[frm])
            # a cell is discovered where it is first found
            at = np.arange(to.size)
            np.minimum.at(self.found, to, at)
            new = np.flatnonzero(self.found[to] == at)
            lane, cell = lane[rep[keep[new]]], to[new]
            node = cell - self.shift[lane]
            seen[cell] = True
            self.levels.append((lane, node))
            self.edges.append((frm, to))
            reached += np.bincount(lane, minlength=sources.size)


def _brandes(bfs: _Bfs, bc) -> None:
    """Add each lane's Brandes dependencies (Brandes 2001) to ``bc``.

    The hops are taken from the deepest, and each hop's edges in reverse
    discovery order of the cell they lead to, which is the order in which
    ``np.add.at`` applies their terms; so every dependency receives the
    serial single-source accumulation's terms in its order, and rounds as it
    does.  The lanes' rows then add up node by node in lane order, each
    lane's own source left out.
    """
    sigma = bfs.sigma.astype(np.float64)
    delta = np.zeros(sigma.size)
    for hop in range(len(bfs.levels) - 1, 0, -1):
        v, w = bfs.edges[hop]
        back = np.argsort(bfs.found[w])[::-1]
        v, w = v[back], w[back]
        np.add.at(delta, v, sigma[v] * ((1.0 + delta[w]) / sigma[w]))
    delta[bfs.shift + bfs.sources] = 0.0
    np.add.at(bc, np.arange(delta.size) - np.repeat(bfs.shift, bfs.size), delta)


def _betweenness(union: _Union) -> np.ndarray:
    """Unnormalized betweenness of every union node."""
    bc = np.zeros(union.graph.size)
    for group in lane_groups(union.size[union.graph]):
        _brandes(_Bfs(union, np.arange(group.start, group.stop)), bc)
    # each unordered pair was counted from both endpoints
    return bc / 2.0


def betweenness_centrality(g: Graphs) -> np.ndarray:
    """Unnormalized betweenness on an unweighted undirected graph.

    score[v] = number of unordered pairs {s, t} (s != v != t) whose shortest
    paths pass through v, weighted by the fraction of s-t shortest paths using
    v.  Brandes' single-source accumulation, O(n*m) overall, run for every
    source at once (see :func:`_brandes`).
    """
    return _betweenness(_Union(g))


# ---------------------------------------------------------------------------
# canonical ordering via individualization-refinement
# ---------------------------------------------------------------------------


def _equitable(adj, partition, moved=None):
    """Refine an ordered partition until equitable.

    Each round splits every cell by the multiset of neighbour cells of its
    vertices; fragments replace their parent in signature order.  The result
    depends only on the abstract graph and the incoming cell order.

    A cell is named by the position just past its last vertex, which orders
    cells as their indices do and stays with the last fragment of a split.  A
    cell cannot split unless a neighbour of one of its vertices changed name in
    the last round, so a round only revisits the cells next to the vertices
    that moved.  ``moved`` may name the vertices split off into earlier
    fragments when ``partition`` was made from an equitable one; the first
    round then starts from them too.
    """
    cells = {}
    cell_of = [0] * sum(len(c) for c in partition)
    end = 0
    for cell in partition:
        end += len(cell)
        cells[end] = cell
        for v in cell:
            cell_of[v] = end
    dirty = cells if moved is None else {cell_of[u] for v in moved for u in adj[v]}
    while True:
        splits = []
        for e in dirty:
            if len(cells[e]) == 1:
                continue
            groups = {}
            for v in cells[e]:
                # the (cell, count) pairs of v's neighbours, in cell order
                sig = []
                last = -1
                for c in sorted([cell_of[u] for u in adj[v]]):
                    if c == last:
                        sig[-1] = (c, sig[-1][1] + 1)
                    else:
                        sig.append((c, 1))
                        last = c
                groups.setdefault(tuple(sig), []).append(v)
            if len(groups) > 1:
                splits.append((e, [groups[sig] for sig in sorted(groups)]))
        if not splits:
            return [cells[e] for e in sorted(cells)]
        moved = []
        for e, fragments in splits:
            e -= len(cells[e])
            for fragment in fragments:
                e += len(fragment)
                cells[e] = fragment
                for v in fragment:
                    cell_of[v] = e
            moved.extend(v for fragment in fragments[:-1] for v in fragment)
        dirty = {cell_of[u] for v in moved for u in adj[v]}


def _is_twin_cell(adj_sets, cell):
    """True when all vertices in the cell are pairwise interchangeable.

    Holds iff every pair u, v satisfies N(u)\\{v} == N(v)\\{u}; then any
    ordering inside the cell yields the same certificate, so the cell can be
    discretized outright instead of branching over it.
    """
    cell_set = set(cell)
    first = cell[0]
    ext0 = adj_sets[first] - cell_set
    deg0 = len(adj_sets[first] & cell_set)
    if deg0 not in (0, len(cell) - 1):
        return False
    for v in cell[1:]:
        if adj_sets[v] - cell_set != ext0:
            return False
        if len(adj_sets[v] & cell_set) != deg0:
            return False
    return True


def _collapse_twins(adj_sets, partition):
    """Discretize the twin cells; returns the partition and the vertices that
    left their cell's last position (empty when no cell was a twin cell)."""
    out = []
    moved = []
    for cell in partition:
        if len(cell) > 1 and _is_twin_cell(adj_sets, cell):
            out.extend([v] for v in cell)
            moved.extend(cell[:-1])
        else:
            out.append(cell)
    return out, moved


def _neighbour_lists(g: Graphs) -> list:
    """Each node's neighbours in the graph ``g``, ascending, as Python lists
    cut from its CSR: the per-node loops of the canonical search index
    them."""
    nbrs, ends = g.indices.tolist(), g.indptr.tolist()
    return [nbrs[a:b] for a, b in zip(ends, ends[1:])]


def _certificate(edges, labels, order):
    """(adjacency bits, labels) of the graph with the ``(m, 2)`` array
    ``edges`` and the label array ``labels``, reordered by ``order``, as
    comparable bytes."""
    n = len(order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    i, j = np.sort(pos[edges], axis=1).T
    bits = np.zeros(n * (n - 1) // 2, dtype=np.uint8)
    bits[i * (2 * n - i - 1) // 2 + (j - i - 1)] = 1
    labels = labels[order]
    return (np.packbits(bits).tobytes() + (labels % 256).astype(np.uint8).tobytes()
            + ((labels >> 8) % 256).astype(np.uint8).tobytes())


def canonical_order(g: Graphs) -> np.ndarray:
    """A node ordering that depends only on the isomorphism class of the
    graph ``g``:
    the int64 array of nodes, canonically first to last.

    Search: refine the label partition to an equitable one, collapse twin
    cells, then branch on every vertex of the first non-singleton cell
    (individualization) and recurse; the leaf with the lexicographically
    smallest (adjacency bitstring, label sequence) certificate wins.  Two
    isomorphic graphs therefore produce identical reordered adjacency
    matrices and label sequences.

    Automorphisms prune the search (McKay & Piperno 2014).  A leaf whose
    certificate equals the first or the best leaf's yields an automorphism;
    the search then returns to the node where the two leaves' paths part,
    since the rest of the subtree it left mirrors one already searched.  A
    node skips a child that the automorphisms fixing each of its cells map
    onto a child it has explored.  Every skipped leaf mirrors an explored leaf
    with the same certificate, so the result is the order of the first
    smallest leaf of the full search.  The search raises
    :class:`CapacityError` after :data:`MAX_SEARCH_NODES` nodes.
    """
    n = len(g.labels)
    if n > MAX_CANONICAL_NODES:
        raise CapacityError(
            f"graph has {n} nodes; canonical labelling bound is {MAX_CANONICAL_NODES}"
        )
    adj = _neighbour_lists(g)
    adj_sets = [set(nbrs) for nbrs in adj]
    edges = g.edges()

    by_label = {}
    for v, label in enumerate(g.labels.tolist()):
        by_label.setdefault(label, []).append(v)
    initial = [by_label[lab] for lab in sorted(by_label)]

    def stabilize(partition, moved=None):
        partition = _equitable(adj, partition, moved)
        while True:
            partition, moved = _collapse_twins(adj_sets, partition)
            if not moved:
                return partition
            partition = _equitable(adj, partition, moved)

    frames = []  # the inner nodes on the path to the current node
    leaves = []  # (certificate, order, path) of the first and the best leaf
    automorphisms = []  # each a list mapping every node to its image
    partition, moved = initial, None
    nodes = 0
    while True:
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise CapacityError(
                f"canonical search of a {n}-node graph exceeded {MAX_SEARCH_NODES} nodes"
            )
        partition = stabilize(partition, moved)
        target = next((i for i, c in enumerate(partition) if len(c) > 1), None)
        if target is not None:
            frames.append(_Frame(partition, target))
        else:
            order = [cell[0] for cell in partition]
            cert = _certificate(edges, g.labels, order)
            path = [frame.chosen for frame in frames]
            for seen_cert, seen_order, seen_path in leaves:
                if cert == seen_cert:
                    gamma = [0] * n
                    for u, v in zip(seen_order, order):
                        gamma[u] = v
                    automorphisms.append(gamma)
                    # return to the node where the two leaves' paths part
                    depth = next(i for i, (a, b) in enumerate(zip(seen_path, path)) if a != b)
                    del frames[depth + 1 :]
                    break
            else:
                if not leaves:
                    leaves = [(cert, order, path)] * 2
                elif cert < leaves[1][0]:
                    leaves[1] = (cert, order, path)
        while frames and not frames[-1].advance(automorphisms):
            frames.pop()
        if not frames:
            return np.array(leaves[1][1], dtype=np.int64)
        partition, moved = frames[-1].child()


class _Frame:
    """An inner node of the canonical search: its partition, the target cell
    it branches on, and the orbits of that cell under the automorphisms found
    so far that map every cell of the partition to itself."""

    def __init__(self, partition, target):
        self.partition, self.target, self.cell = partition, target, partition[target]
        self.next = 0
        self.explored = []
        self.chosen = None
        self.absorbed = 0
        self.orbit = {}  # union-find parent links over the target cell
        self.cell_of = None

    def find(self, v):
        while v in self.orbit:
            v = self.orbit[v]
        return v

    def fixes(self, gamma) -> bool:
        """Whether the automorphism ``gamma`` maps every cell of this node to
        itself; only those may merge orbits of its target cell."""
        if self.cell_of is None:
            self.cell_of = [0] * len(gamma)
            for i, cell in enumerate(self.partition):
                for v in cell:
                    self.cell_of[v] = i
        return all(self.cell_of[w] == i for w, i in zip(gamma, self.cell_of))

    def advance(self, automorphisms) -> bool:
        """Choose the next child outside the orbits of the explored ones;
        False when none is left."""
        if self.explored:
            for gamma in automorphisms[self.absorbed :]:
                if self.fixes(gamma):
                    for v in self.cell:
                        a, b = self.find(v), self.find(gamma[v])
                        if a != b:
                            self.orbit[a] = b
            self.absorbed = len(automorphisms)
        while self.next < len(self.cell):
            v = self.cell[self.next]
            self.next += 1
            if all(self.find(v) != self.find(u) for u in self.explored):
                self.explored.append(v)
                self.chosen = v
                return True
        return False

    def child(self) -> tuple:
        """The partition with the chosen vertex individualized, and the
        vertex, which is the one that moved (see :func:`_equitable`)."""
        v, cell, target = self.chosen, self.cell, self.target
        return (self.partition[:target] + [[v], [u for u in cell if u != v]]
                + self.partition[target + 1 :]), [v]


def canonical_certificate(g: Graphs) -> bytes:
    """Certificate bytes of ``g``; equal iff two graphs are isomorphic."""
    return _certificate(g.edges(), g.labels, canonical_order(g).tolist())


def check_labelling(labelling: str) -> None:
    """Raise ValueError unless ``labelling`` is one of :data:`LABELLINGS`."""
    if labelling not in LABELLINGS:
        raise ValueError(f"unknown labelling {labelling!r}; expected one of {LABELLINGS}")


def _rank_chunk(union: _Union, labelling: str) -> np.ndarray:
    """The nodes of every graph of ``union``, which is renamed to each
    graph's canonical order, ranked under ``labelling`` most important first,
    graph after graph."""
    check_labelling(labelling)
    if labelling == "canonical":
        return np.arange(union.graph.size)
    return np.lexsort((-_betweenness(union), union.graph))


def rank_nodes(g: Graphs, labelling: str) -> np.ndarray:
    """The int64 node order of the graph ``g`` under the labelling named ``labelling``, one of
    :data:`LABELLINGS`, most important first.

    ``canonical`` is the canonical order.  ``bc`` ranks by betweenness
    descending, then canonical position, so ties break
    isomorphism-consistently.  To keep the *floats* identical across
    relabellings of the same graph, Brandes runs on the canonically relabelled
    graph (the summation order, hence rounding, then no longer depends on input
    ids), whose node i is the canonical order's node i.
    """
    check_labelling(labelling)
    union = _Union(g, [canonical_order(g)])
    return union.ids[_rank_chunk(union, labelling)]


def _fields(union: _Union, bfs: _Bfs, place, out) -> None:
    """Write the receptive field of each lane ``i`` of ``bfs`` to ``out[i]``:
    its first ``k`` reachable nodes by (hop, ``place``), as input ids of the
    union, with ``k = out.shape[1]``.

    ``place`` maps each input id to its position in the ranked order.  A BFS
    run with ``reach=k`` holds whole rings until a lane has ``k`` nodes, so
    the last ring may overshoot ``k`` before the sort trims it.  Rows of lanes
    that reach fewer than ``k`` nodes keep their tail.
    """
    k = out.shape[1]
    lane, node = (np.concatenate(a) for a in zip(*bfs.levels))
    hop = np.repeat(np.arange(len(bfs.levels)), [a.size for a, _ in bfs.levels])
    node = union.ids[node]
    node = node[np.argsort((lane * len(bfs.levels) + hop) * place.size + place[node])]
    count = np.bincount(lane, minlength=len(out))
    lane = np.sort(lane)
    slot = np.arange(lane.size) - np.repeat(np.cumsum(count) - count, count)
    keep = slot < k
    out[lane[keep], slot[keep]] = node[keep]


def receptive_fields(graphs, orders, labelling: str, w: int, k: int):
    """The anchors and receptive fields of a chunk of graphs, ``orders``
    giving each graph's canonical order.

    The first ``min(w, n)`` nodes of a graph under ``labelling`` are its
    anchors, and an anchor's field is its first ``k`` hop-closest nodes by
    (hop, place in that same order), from one BFS of every anchor of the
    chunk (run in groups of at most :data:`CELLS` cells).  Returns ``(graph,
    slot, fields)``: anchor ``j`` is the ``slot[j]``-th ranked node of graph
    ``graph[j]``, and ``fields[j]`` its members as positions in the chunk's
    concatenated node lists, :data:`graphcaps.data.PAD` past the last.
    """
    union = _Union(graphs, orders)
    rank = _rank_chunk(union, labelling)
    place = np.empty_like(rank)
    place[union.ids[rank]] = np.arange(rank.size)
    # the first min(w, n) ranked nodes of each graph, and their grid rows
    top = np.minimum(union.size, w)
    slot = np.arange(top.sum()) - np.repeat(np.cumsum(top) - top, top)
    graph = np.repeat(np.arange(len(graphs)), top)
    anchors = rank[union.off[graph] + slot]
    fields = np.full((anchors.size, k), PAD, dtype=np.int64)
    for group in lane_groups(union.size[graph]):
        _fields(union, _Bfs(union, anchors[group], reach=k), place, fields[group])
    return graph, slot, fields
