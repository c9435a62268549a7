"""Built-in verification suites for ``graphcaps selftest``.

Each suite re-derives expected values through an independent route (path
enumeration, finite differences, exhaustive relabelling) and checks the
production code against it.  The brute-force betweenness oracle here is
deliberately a different algorithm from the Brandes implementation.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import autodiff, nn
from .data import Graph, permute_node_ids
from .labelling import Procedure, betweenness_centrality, canonical_certificate
from .tensorize import graph_to_tensor


def bruteforce_betweenness(g: Graph) -> np.ndarray:
    """Betweenness by explicit enumeration of every shortest path.

    For each unordered pair {s, t} all shortest paths are generated through
    the BFS predecessor DAG; node v accrues (paths through v) / (all paths).
    Exponential in the worst case, fine for n <= 8.
    """
    adj = g.adjacency()
    n = g.n
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


def random_graph(rng, n: int, p: float, num_labels: int = 1, connected: bool = False) -> Graph:
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
    labels = tuple(int(x) for x in rng.integers(0, num_labels, n))
    return Graph(n=n, edges=frozenset(edges), node_labels=labels, class_label=0)


def _suite_betweenness(rng, break_kernel: bool) -> tuple:
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.9)), connected=True)
        got = betweenness_centrality(g)
        want = bruteforce_betweenness(g)
        if break_kernel:
            got = got + 1e-6
        if not np.allclose(got, want, atol=1e-9, rtol=0.0):
            failures += 1
    return failures, "200 random connected graphs (n<=8) vs path-enumeration oracle"


def _suite_canonical(rng, break_kernel: bool) -> tuple:
    failures = 0
    for _ in range(40):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)), num_labels=3)
        ref = canonical_certificate(g)
        for rep in range(5):
            h = permute_node_ids(g, [11, rep])
            cert = canonical_certificate(h)
            if break_kernel:
                cert = cert + b"x"
            if cert != ref:
                failures += 1
    return failures, "40 random graphs x 5 relabellings, certificate identity"


def _suite_tensor_invariance(rng, break_kernel: bool) -> tuple:
    failures = 0
    for _ in range(25):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.8)), num_labels=3)
        for procedure in (Procedure.CANONICAL, Procedure.BETWEENNESS):
            ref = graph_to_tensor(g, w=8, k=5, d=3, procedure=procedure)
            h = permute_node_ids(g, [17, n])
            got = graph_to_tensor(h, w=8, k=5, d=3, procedure=procedure)
            if break_kernel:
                got = got + 1
            if not np.array_equal(ref, got):
                failures += 1
    return failures, "25 random graphs, bitwise tensor equality under relabelling"


def _suite_gradients(rng, break_kernel: bool) -> tuple:
    def f_squash(v):
        return (nn.squash(v) * nn.squash(v)).sum()

    def f_conv(x, w, b):
        return (autodiff.conv2d(x, w, b, stride=(1, 1)).relu() ** 2).sum()

    checks = [
        ("squash", f_squash, [rng.normal(size=(3, 4))]),
        (
            "conv2d",
            f_conv,
            [rng.normal(size=(2, 5, 5, 2)), rng.normal(size=(3, 3, 2, 2)), rng.normal(size=2)],
        ),
    ]
    failures = 0
    for name, f, point in checks:
        err = autodiff.grad_check(f, point, h=1e-5)
        if break_kernel:
            err += 1.0
        if err >= 1e-6:
            failures += 1
    return failures, "finite-difference gradient checks (squash, conv2d)"


def _suite_routing(rng, break_kernel: bool) -> tuple:
    failures = 0
    for iters in range(1, 6):
        u_hat = rng.normal(size=(4, 6, 3, 5))
        _, couplings = nn.dynamic_routing(autodiff.Tensor(u_hat), iters, return_trace=True)
        for c in couplings:
            sums = c.sum(axis=-1)
            if break_kernel:
                sums = sums + 1e-6
            if not np.allclose(sums, 1.0, atol=1e-9):
                failures += 1
    return failures, "coupling rows sum to 1 across 1..5 routing iterations"


SUITES = (
    ("betweenness-oracle", _suite_betweenness),
    ("canonical-invariance", _suite_canonical),
    ("tensor-invariance", _suite_tensor_invariance),
    ("gradient-checks", _suite_gradients),
    ("routing-sums", _suite_routing),
)


def run_selftest(break_kernel: bool = False) -> int:
    total_failures = 0
    for index, (name, suite) in enumerate(SUITES):
        rng = np.random.default_rng([0x73657374, index])
        t0 = time.perf_counter()
        failures, desc = suite(rng, break_kernel)
        elapsed = time.perf_counter() - t0
        status = "PASS" if failures == 0 else f"FAIL ({failures} failures)"
        print(f"[selftest] {name:22s} {status:6s} {elapsed:6.2f}s  {desc}")
        total_failures += failures
    if total_failures:
        print(f"[selftest] FAILED with {total_failures} total failures")
        return 1
    print("[selftest] all suites passed")
    return 0
