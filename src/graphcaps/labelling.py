"""Node-ranking procedures that drive node selection and ordering.

Three building blocks: Brandes betweenness centrality, Weisfeiler-Lehman
colour refinement, and a canonical node ordering computed by backtracking
individualization-refinement.  All of them are pure functions of the input
graph and deterministic, so rankings are reproducible bit-for-bit.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .data import Graph

# Canonical labelling is exact but not NAUTY-fast; guard against inputs far
# beyond benchmark scale.
MAX_CANONICAL_NODES = 10_000


class CapacityError(RuntimeError):
    """Input exceeds the configured size bound of an exact procedure."""


class Procedure(str, Enum):
    BETWEENNESS = "bc"
    CANONICAL = "canonical"


@dataclass
class NodeRanking:
    """A total node order, most-important first, the scores behind it, and the
    key that orders receptive-field members (see :func:`rank_nodes`; in
    :func:`canonical_order`'s own result it is the canonical position)."""

    order: np.ndarray
    scores: np.ndarray
    procedure: Procedure
    member_key: np.ndarray


@dataclass
class WLColoring:
    colors: np.ndarray
    rounds: int


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Unnormalized betweenness on an unweighted undirected graph.

    score[v] = number of unordered pairs {s, t} (s != v != t) whose shortest
    paths pass through v, weighted by the fraction of s-t shortest paths using
    v.  Brandes' single-source accumulation, O(n*m) overall.
    """
    adj = g.adjacency()
    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    # each unordered pair was counted from both endpoints
    return bc / 2.0


def wl_refine(g: Graph, init=None, rounds: int | None = None) -> WLColoring:
    """Colour refinement: colour := hash(colour, sorted neighbour colours).

    Colour ids are canonicalized each round by the lexicographic rank of the
    (previous colour, neighbour multiset) signature, so the colouring does not
    depend on node numbering.  Stops when the partition is stable or after
    ``rounds`` iterations; ``rounds=None`` runs to stability (at most n rounds).
    """
    if rounds is not None and rounds < 0:
        raise ValueError("rounds must be >= 0")
    init = g.node_labels if init is None else tuple(int(x) for x in init)
    if len(init) != g.n:
        raise ValueError(f"expected {g.n} initial labels, got {len(init)}")
    adj = g.adjacency()

    rank = {c: i for i, c in enumerate(sorted(set(init)))}
    colors = [rank[c] for c in init]
    num = len(rank)

    limit = g.n if rounds is None else rounds
    done = 0
    while done < limit:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(g.n)]
        sig_rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [sig_rank[s] for s in sigs]
        done += 1
        if len(sig_rank) == num:
            # no cell split => partition stable; ids also coincide because the
            # signature sort is dominated by the previous colour
            colors = new_colors
            break
        colors, num = new_colors, len(sig_rank)
    return WLColoring(colors=np.array(colors, dtype=np.int64), rounds=done)


# ---------------------------------------------------------------------------
# canonical ordering via individualization-refinement
# ---------------------------------------------------------------------------


def _equitable(adj, partition):
    """Refine an ordered partition until equitable.

    Each cell is split by the multiset of neighbour cell-indices of its
    vertices; fragments replace their parent in signature order.  The result
    depends only on the abstract graph and the incoming cell order.
    """
    n = sum(len(c) for c in partition)
    while True:
        cell_of = [0] * n
        for ci, cell in enumerate(partition):
            for v in cell:
                cell_of[v] = ci
        new_partition = []
        split = False
        for cell in partition:
            if len(cell) == 1:
                new_partition.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(sorted(Counter(cell_of[u] for u in adj[v]).items()))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_partition.append(cell)
            else:
                split = True
                for sig in sorted(groups):
                    new_partition.append(groups[sig])
        partition = new_partition
        if not split:
            return partition


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
    out = []
    changed = False
    for cell in partition:
        if len(cell) > 1 and _is_twin_cell(adj_sets, cell):
            out.extend([v] for v in cell)
            changed = True
        else:
            out.append(cell)
    return out, changed


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


def canonical_order(g: Graph) -> NodeRanking:
    """A node ordering that depends only on the isomorphism class of ``g``.

    Search: refine the label partition to an equitable one, collapse twin
    cells, then branch on every vertex of the first non-singleton cell
    (individualization) and recurse; the leaf with the lexicographically
    smallest (adjacency bitstring, label sequence) certificate wins.  Two
    isomorphic graphs therefore produce identical reordered adjacency
    matrices and label sequences.
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

    best = {"cert": None, "order": None}

    def stabilize(partition):
        partition = _equitable(adj, partition)
        while True:
            partition, changed = _collapse_twins(adj_sets, partition)
            if not changed:
                return partition
            partition = _equitable(adj, partition)

    def descend(partition):
        partition = stabilize(partition)
        target = next((i for i, c in enumerate(partition) if len(c) > 1), None)
        if target is None:
            order = [cell[0] for cell in partition]
            cert = _certificate(g, order)
            if best["cert"] is None or cert < best["cert"]:
                best["cert"] = cert
                best["order"] = order
            return
        cell = partition[target]
        for v in cell:
            branched = (
                partition[:target]
                + [[v], [u for u in cell if u != v]]
                + partition[target + 1 :]
            )
            descend(branched)

    descend(initial)
    order = np.array(best["order"], dtype=np.int64)
    pos = np.empty_like(order)
    pos[order] = np.arange(g.n)
    return NodeRanking(
        order=order,
        scores=(g.n - pos).astype(np.float64),  # earlier = higher
        procedure=Procedure.CANONICAL,
        member_key=pos,
    )


def canonical_certificate(g: Graph) -> bytes:
    """Certificate bytes of ``g``; equal iff two graphs are isomorphic."""
    return _certificate(g, canonical_order(g).order.tolist())


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


def rank_nodes(g: Graph, procedure: Procedure, naive_ties: bool = False) -> NodeRanking:
    """Total node ordering under the chosen procedure, and the member key that
    orders each receptive field's hop rings (smaller first).

    The member key packs (WL colour, canonical position) into one integer,
    ``wl[v] * n + canonical_pos[v]``; betweenness ranks by (score desc, member
    key asc), so ties break isomorphism-consistently.  To keep the *floats*
    identical across relabellings of the same graph, Brandes runs on the
    canonically relabelled graph and scores are mapped back (the summation
    order, hence rounding, then no longer depends on input ids).
    ``naive_ties`` makes the member key the node index, and BC scores are then
    computed in input order; that variant is intentionally not
    permutation-invariant and exists for fidelity experiments.
    """
    if procedure is not Procedure.BETWEENNESS and procedure is not Procedure.CANONICAL:
        raise ValueError(f"unknown procedure: {procedure!r}")
    if naive_ties:
        member_key = np.arange(g.n, dtype=np.int64)
        if procedure is Procedure.CANONICAL:
            return replace(canonical_order(g), member_key=member_key)
        scores = betweenness_centrality(g)
    else:
        canon = canonical_order(g)
        member_key = wl_refine(g).colors * g.n + canon.member_key
        if procedure is Procedure.CANONICAL:
            return replace(canon, member_key=member_key)
        scores = betweenness_centrality(_relabel(g, canon.order.tolist()))[canon.member_key]
    order = sorted(range(g.n), key=lambda v: (-scores[v], member_key[v]))
    return NodeRanking(
        order=np.array(order, dtype=np.int64),
        scores=scores,
        procedure=Procedure.BETWEENNESS,
        member_key=member_key,
    )
