"""Verification suites for ``graphcaps selftest`` and acceptance criteria 4-8.

Each suite re-derives expected values through an independent route (path
enumeration, finite differences, exhaustive relabelling) and checks the
production code against it.  The brute-force betweenness oracle here is
deliberately a different algorithm from the Brandes implementation.  A suite
that runs past its time limit fails.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import autodiff, nn
from .data import Graphs, graph, permute_node_ids
from .labelling import (
    LABELLINGS,
    _certificate,
    _collapse_twins,
    _equitable,
    _neighbour_lists,
    betweenness_centrality,
    canonical_certificate,
    canonical_order,
)
from .models import CapsNet, CapsNetConfig
from .tensorize import graph_to_tensor

# The capsule network whose loss gradient the gradient suite checks end to end.
TINY = CapsNetConfig(conv_filters=6, primary_channels=2, primary_dim=4, primary_kernel=1,
                     primary_stride=1, caps_dim=6, decoder_hidden=(8, 12), loss_mode="margin")

# the 11 isomorphism classes of 4-node simple graphs have these class sizes;
# the 5-node graphs fall into 34 classes
FOUR_NODE_CLASS_SIZES = sorted([1, 3, 6, 4, 3, 12, 12, 6, 12, 4, 1])


def bruteforce_betweenness(g: Graphs) -> np.ndarray:
    """Betweenness by explicit enumeration of every shortest path.

    For each unordered pair {s, t} all shortest paths are generated through
    the BFS predecessor DAG; node v accrues (paths through v) / (all paths).
    Exponential in the worst case, fine for n <= 8.
    """
    adj = _neighbour_lists(g)
    n = len(g.labels)
    score = np.zeros(n)

    def bfs_dag(s):
        dist = {s: 0}
        preds = {s: []}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        preds[u] = [v]
                        nxt.append(u)
                    elif dist[u] == dist[v] + 1:
                        preds[u].append(v)
            frontier = nxt
        return dist, preds

    def all_paths(preds, t):
        if not preds[t]:
            return [[t]]
        return [path + [t] for p in preds[t] for path in all_paths(preds, p)]

    for s in range(n):
        dist, preds = bfs_dag(s)
        for t in range(s + 1, n):
            if t not in dist:
                continue
            paths = all_paths(preds, t)
            for path in paths:
                for v in path[1:-1]:
                    score[v] += 1.0 / len(paths)
    return score


def reference_canonical_order(g: Graphs) -> list:
    """The order of the first leaf with the smallest certificate in the full
    search tree of :func:`~graphcaps.labelling.canonical_order`, which that
    function claims to return.  No automorphism pruning and no node budget, so
    the search is exponential: small graphs only.  It shares the refinement
    (``_equitable``), the twin collapse (``_collapse_twins``) and the
    certificate (``_certificate``) with the production search, so it checks
    the pruning and nothing else."""
    adj = _neighbour_lists(g)
    adj_sets = [set(nbrs) for nbrs in adj]
    edges = g.edges()
    best = []

    def search(partition):
        moved = True
        while moved:
            partition, moved = _collapse_twins(adj_sets, _equitable(adj, partition))
        target = next((i for i, c in enumerate(partition) if len(c) > 1), None)
        if target is None:
            order = [cell[0] for cell in partition]
            cert = _certificate(edges, g.labels, order)
            if not best or cert < best[0]:
                best[:] = cert, order
            return
        cell = partition[target]
        for v in cell:
            search(partition[:target] + [[v], [u for u in cell if u != v]]
                   + partition[target + 1 :])

    labels = g.labels.tolist()
    search([[v for v, label in enumerate(labels) if label == lab] for lab in sorted(set(labels))])
    return best[1]


def random_graph(rng, n: int, p: float, num_labels: int = 1, connected: bool = False) -> Graphs:
    """Erdos-Renyi graph; with ``connected`` a random spanning tree is added."""
    edges = set()
    if connected and n > 1:
        nodes = list(rng.permutation(n))
        for i in range(1, n):
            j = int(rng.integers(0, i))
            u, v = nodes[i], nodes[j]
            edges.add((u, v) if u < v else (v, u))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return graph(n, edges, rng.integers(0, num_labels, n))


def disjoint_union(*graphs) -> Graphs:
    """The graphs side by side as one graph, node ids offset in the order given."""
    offsets = np.cumsum([0] + [len(g.labels) for g in graphs])
    return graph(offsets[-1], np.concatenate([g.edges() + off for g, off in zip(graphs, offsets)]),
                 np.concatenate([g.labels for g in graphs]))


def cycle_union(lengths) -> Graphs:
    """Disjoint cycles of the given lengths on consecutive node ids.  Every
    node has degree 2, so refinement cannot tell the cycles apart and only the
    search can."""
    edges, start = set(), 0
    for length in lengths:
        ring = range(start, start + length)
        edges.update(zip(ring, [*ring[1:], ring[0]]))
        start += length
    return graph(start, edges, [0] * start)


def all_simple_graphs(n: int):
    """Every labelled simple graph on n nodes (uniform node labels)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield graph(n, [p for p, b in zip(pairs, bits) if b], [0] * n)


def _suite_betweenness(rng) -> tuple:
    failures = 0
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)),
                         connected=True)
        got, want = betweenness_centrality(g), bruteforce_betweenness(g)
        failures += not np.allclose(got, want, rtol=0.0, atol=1e-9)
    return failures, "200 random connected graphs (n <= 8) vs path enumeration, atol 1e-9"


def _suite_canonical(rng) -> tuple:
    failures = 0
    for trial in range(100):
        g = random_graph(rng, int(rng.integers(2, 21)), float(rng.uniform(0.05, 0.95)),
                         num_labels=3)
        ref = canonical_certificate(g)
        failures += sum(canonical_certificate(permute_node_ids(g, [trial, rep])) != ref
                        for rep in range(20))
    class_sizes = {}
    for g in all_simple_graphs(4):
        ref = canonical_certificate(g)
        class_sizes[ref] = class_sizes.get(ref, 0) + 1
        for perm in itertools.permutations(range(4)):
            h = graph(4, np.array(perm)[g.edges()], g.labels)
            failures += canonical_certificate(h) != ref
    failures += sorted(class_sizes.values()) != FOUR_NODE_CLASS_SIZES
    failures += len({canonical_certificate(g) for g in all_simple_graphs(5)}) != 34
    for trial in range(30):
        g = cycle_union(rng.integers(3, 7, size=int(rng.integers(2, 5))).tolist())
        ref = canonical_certificate(g)
        failures += sum(canonical_certificate(permute_node_ids(g, [trial, rep])) != ref
                        for rep in range(5))
    # the pruned search returns the unpruned search's order, on graphs whose
    # automorphisms make the pruning fire
    for trial in range(60):
        part = random_graph(rng, int(rng.integers(1, 5)), float(rng.uniform(0.2, 0.9)),
                            num_labels=2)
        graphs = [
            disjoint_union(*[part] * int(rng.integers(2, 8 // len(part.labels) + 1))),
            cycle_union(rng.integers(3, 6, size=2).tolist()),
            random_graph(rng, int(rng.integers(2, 11)), float(rng.uniform(0.1, 0.9)),
                         num_labels=int(rng.integers(1, 3))),
        ]
        for g in graphs:
            h = permute_node_ids(g, [trial, 0])
            failures += canonical_order(h).tolist() != reference_canonical_order(h)
    return failures, ("100 random graphs (n <= 20) x 20 relabellings; "
                      "all 4-node graphs x 4! relabellings: 11 classes; all 5-node graphs: 34; "
                      "30 unions of 2-4 cycles x 5 relabellings; order = unpruned search's "
                      "on 60 x (copies of a part, 2 cycles, a random graph) with n <= 10")


def _suite_tensor_invariance(rng) -> tuple:
    failures = 0
    for trial in range(100):
        n, d = int(rng.integers(2, 21)), int(rng.integers(1, 6))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.9)), num_labels=d)
        for labelling in LABELLINGS:
            ref = graph_to_tensor(g, w=10, k=6, d=5, labelling=labelling)
            for rep in range(5):
                h = permute_node_ids(g, [trial, rep])
                failures += not np.array_equal(
                    ref, graph_to_tensor(h, w=10, k=6, d=5, labelling=labelling))
    return failures, "100 graphs (n <= 20) x 5 relabellings x 2 labellings at w=10, k=6, bitwise"


def _suite_gradients(rng) -> tuple:
    model = CapsNet(4, 3, 4, 2, TINY, seed=11)
    x = np.eye(4)[rng.integers(0, 4, size=(4, 4, 3))]
    y = np.array([0, 1, 1, 0])
    names = sorted(model.params)

    def f_capsnet(*tensors):
        model.params.update(zip(names, tensors))
        return model.loss_batch(x, y)[0]

    checks = [
        (lambda v: (nn.squash(v) ** 2).sum(), [rng.normal(size=(3, 5))], 1e-6),
        (lambda x, w, b: (autodiff.conv2d(x, w, b, stride=(1, 1)).relu() ** 2).sum(),
         [rng.normal(size=(2, 5, 5, 2)), rng.normal(size=(3, 3, 2, 2)), rng.normal(size=2)], 1e-6),
        (f_capsnet, [model.params[n].data.copy() for n in names], 1e-4),
    ]
    failures = sum(autodiff.grad_check(f, point) >= bound for f, point, bound in checks)
    return failures, "squash and conv2d rel err < 1e-6, TINY CapsNet loss rel err < 1e-4"


def _suite_routing(rng) -> tuple:
    failures = 0
    for iters in range(1, 6):
        _, couplings = autodiff.routing(rng.normal(size=(4, 7, 4, 5)), iters)
        failures += len(couplings) != iters
        failures += sum(not np.allclose(c.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
                        for c in couplings)
    return failures, "1..5 routing rounds on (4, 7, 4, 5): coupling rows sum to 1, atol 1e-9"


# name: (suite, time limit in seconds)
SUITES = {
    "betweenness-oracle": (_suite_betweenness, 10.0),
    "canonical-invariance": (_suite_canonical, 5.0),
    "tensor-invariance": (_suite_tensor_invariance, 60.0),
    "gradient-checks": (_suite_gradients, 30.0),
    "routing-sums": (_suite_routing, 5.0),
}


def run_suite(name: str) -> tuple:
    """``(failures, detail)`` of the suite called ``name``: its failed checks,
    or one if it raised, plus one if it ran past its time limit, and a line
    describing the run."""
    suite, limit = SUITES[name]
    rng = np.random.default_rng([0x73657374, list(SUITES).index(name)])
    start = time.perf_counter()
    try:
        failures, desc = suite(rng)
    except Exception as exc:  # noqa: BLE001 - a kernel that raises fails its suite
        failures, desc = 1, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    failures += elapsed > limit
    return failures, f"{desc} ({failures} failures, {elapsed:.2f}s, limit {limit:g}s)"


def run_selftest() -> int:
    total_failures = 0
    for name in SUITES:
        failures, detail = run_suite(name)
        print(f"[selftest] {name:20s} {'PASS' if failures == 0 else 'FAIL'}  {detail}")
        total_failures += failures
    if total_failures:
        print(f"[selftest] FAILED with {total_failures} total failures")
        return 1
    print("[selftest] all suites passed")
    return 0
