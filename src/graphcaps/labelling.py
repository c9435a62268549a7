"""Node rankings that drive node selection and ordering.

:data:`LABELLINGS` names the rankings a run can choose, and
:func:`rank_nodes` returns one node order under each: it picks a graph's
anchors and orders every receptive field.  Two building blocks serve them:
Brandes betweenness centrality and a canonical node ordering computed by
backtracking individualization-refinement with automorphism pruning.  Both
return plain numpy arrays, are pure functions of the input graph and are
deterministic, so rankings are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .data import Graph

# Canonical labelling is exact but not NAUTY-fast; guard against inputs far
# beyond benchmark scale.
MAX_CANONICAL_NODES = 10_000
# The canonical search raises CapacityError after visiting this many nodes of
# its search tree, so that no input can keep it running.
MAX_SEARCH_NODES = 10_000

# The node rankings a run may choose: betweenness centrality or the canonical
# order.  Every other module reads the names from here.
LABELLINGS = ("bc", "canonical")


class CapacityError(RuntimeError):
    """Input exceeds the configured size bound of an exact procedure."""


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Unnormalized betweenness on an unweighted undirected graph.

    score[v] = number of unordered pairs {s, t} (s != v != t) whose shortest
    paths pass through v, weighted by the fraction of s-t shortest paths using
    v.  Brandes' single-source accumulation, O(n*m) overall.
    """
    adj = g.adjacency()
    n = g.n
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


def _certificate(g: Graph, order):
    """(adjacency bits, labels) of the reordered graph, as comparable bytes."""
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bits = np.zeros(n * (n - 1) // 2, dtype=np.uint8)
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        bits[i * (2 * n - i - 1) // 2 + (j - i - 1)] = 1
    labels = bytes(bytearray(g.node_labels[v] % 256 for v in order)) + bytes(
        bytearray((g.node_labels[v] >> 8) % 256 for v in order)
    )
    return np.packbits(bits).tobytes() + labels


def canonical_order(g: Graph) -> np.ndarray:
    """A node ordering that depends only on the isomorphism class of ``g``:
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
    if g.n > MAX_CANONICAL_NODES:
        raise CapacityError(
            f"graph has {g.n} nodes; canonical labelling bound is {MAX_CANONICAL_NODES}"
        )
    adj = g.adjacency()
    adj_sets = [set(nbrs) for nbrs in adj]

    by_label = {}
    for v in range(g.n):
        by_label.setdefault(g.node_labels[v], []).append(v)
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
                f"canonical search of a {g.n}-node graph exceeded {MAX_SEARCH_NODES} nodes"
            )
        partition = stabilize(partition, moved)
        target = next((i for i, c in enumerate(partition) if len(c) > 1), None)
        if target is not None:
            frames.append(_Frame(partition, target))
        else:
            order = [cell[0] for cell in partition]
            cert = _certificate(g, order)
            path = [frame.chosen for frame in frames]
            for seen_cert, seen_order, seen_path in leaves:
                if cert == seen_cert:
                    gamma = [0] * g.n
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


def canonical_certificate(g: Graph) -> bytes:
    """Certificate bytes of ``g``; equal iff two graphs are isomorphic."""
    return _certificate(g, canonical_order(g).tolist())


def _relabel(g: Graph, order) -> Graph:
    """Rebuild ``g`` with node at rank i renamed to i."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    edges = frozenset(
        (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in g.edges
    )
    labels = tuple(g.node_labels[v] for v in order)
    return Graph(n=g.n, edges=edges, node_labels=labels, class_label=g.class_label)


def rank_nodes(g: Graph, labelling: str) -> np.ndarray:
    """The int64 node order under the labelling named ``labelling``, one of
    :data:`LABELLINGS`, most important first.

    ``canonical`` is the canonical order.  ``bc`` ranks by betweenness
    descending, then canonical position, so ties break
    isomorphism-consistently.  To keep the *floats* identical across
    relabellings of the same graph, Brandes runs on the canonically relabelled
    graph (the summation order, hence rounding, then no longer depends on input
    ids), whose node i is the canonical order's node i.
    """
    if labelling not in LABELLINGS:
        raise ValueError(f"unknown labelling {labelling!r}; expected one of {LABELLINGS}")
    order = canonical_order(g)
    if labelling == "canonical":
        return order
    scores = betweenness_centrality(_relabel(g, order.tolist()))
    return order[np.argsort(-scores, kind="stable")]
