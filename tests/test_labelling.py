import importlib
import itertools
import os
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcaps import labelling
from graphcaps.data import Graphs, graph, permute_node_ids
from graphcaps.labelling import (
    MAX_CANONICAL_NODES,
    CapacityError,
    betweenness_centrality,
    canonical_certificate,
    canonical_order,
    lane_groups,
    rank_nodes,
)
from graphcaps.selftest import (
    FOUR_NODE_CLASS_SIZES,
    all_simple_graphs,
    bruteforce_betweenness,
    random_graph,
)
from helpers import (cycle_graph, diamond_chain, disjoint_union, join, path_graph,
                     scalar_betweenness, star_graph, traced_peak, triangle)


def labelled_molecule_with_fragments(copies: int) -> Graphs:
    """A nitrobenzene (C 0, N 1, O 2) beside ``copies`` identical acetate
    fragments."""
    ring = [(i, (i + 1) % 6) for i in range(6)]
    nitro = [(0, 6), (6, 7), (6, 8)]
    benzene = graph(9, ring + nitro, (0,) * 6 + (1, 2, 2))
    acetate = graph(4, [(0, 1), (1, 2), (1, 3)], (0, 0, 2, 2))
    return disjoint_union(benzene, *[acetate] * copies)


# Graphs whose unpruned canonical search is factorial in the number of
# identical components, or for the cycle visits two leaves per node.
SYMMETRIC_FAMILIES = {
    "4-triangles": lambda: disjoint_union(*[triangle()] * 4),
    "5-triangles": lambda: disjoint_union(*[triangle()] * 5),
    "8-triangles": lambda: disjoint_union(*[triangle()] * 8),
    "4-C4": lambda: disjoint_union(*[cycle_graph(4)] * 4),
    "6-C4": lambda: disjoint_union(*[cycle_graph(4)] * 6),
    "C80": lambda: cycle_graph(80),
    "molecule-3-fragments": lambda: labelled_molecule_with_fragments(3),
}


class TestBetweenness:
    def test_triangle_all_zero(self):
        assert betweenness_centrality(triangle()).tolist() == [0.0, 0.0, 0.0]

    def test_path_center(self):
        # the single {a, c} pair routes through b
        g = path_graph(3)
        expected = bruteforce_betweenness(g)
        assert expected.tolist() == [0.0, 1.0, 0.0]
        assert betweenness_centrality(g).tolist() == expected.tolist()

    def test_star_center(self):
        # C(4, 2) = 6 leaf pairs all route through the hub
        g = star_graph(4)
        expected = bruteforce_betweenness(g)
        assert expected.tolist() == [6.0, 0.0, 0.0, 0.0, 0.0]
        assert betweenness_centrality(g).tolist() == expected.tolist()

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)),
                             connected=True)
            got = betweenness_centrality(g)
            want = bruteforce_betweenness(g)
            assert np.allclose(got, want, atol=1e-9, rtol=0.0)

    def test_disconnected_graphs_allowed(self):
        g = graph(4, [(0, 1)], (0,) * 4)
        assert betweenness_centrality(g).tolist() == [0.0, 0.0, 0.0, 0.0]


class TestBatchedBrandes:
    """The chunk-level Brandes equals the serial reference bit for bit."""

    @staticmethod
    def graphs():
        rng = np.random.default_rng(8)
        out = [graph(1, [], (0,)), graph(5, [], (0,) * 5),
               disjoint_union(cycle_graph(5), path_graph(4), star_graph(3))]
        for _ in range(120):
            out.append(random_graph(rng, int(rng.integers(1, 25)), float(rng.uniform(0.0, 0.8)),
                                    connected=bool(rng.integers(0, 2))))
        return out

    def test_bitwise_equal_to_the_serial_reference(self):
        for g in self.graphs():
            assert betweenness_centrality(g).tobytes() == scalar_betweenness(g).tobytes()

    def test_path_counts_past_2_63(self):
        # 2**64 shortest paths join the ends of 64 diamonds in a row
        g = diamond_chain(64)
        union = labelling._Union(g)
        assert labelling._Bfs(union, np.array([0])).sigma[len(g.labels) - 1] == 2**64
        assert betweenness_centrality(g).tobytes() == scalar_betweenness(g).tobytes()

    @pytest.mark.parametrize("budget", ["1-cell", "7-graphs", "everything"])
    def test_same_bits_for_every_budget(self, monkeypatch, budget):
        graphs = self.graphs()
        cells = {"1-cell": 1, "7-graphs": 7 * max(len(g.labels) for g in graphs) ** 2,
                 "everything": sum(len(g.labels) for g in graphs) ** 2}[budget]
        monkeypatch.setattr(labelling, "CELLS", cells)
        scores = labelling._betweenness(labelling._Union(join(graphs)))
        want = np.concatenate([scalar_betweenness(g) for g in graphs])
        assert scores.tobytes() == want.tobytes()

    def test_memory_stays_within_the_cell_budget(self):
        # a 2000-node tree with chords; its n x n float64 block alone is 32 MB
        rng = np.random.default_rng(9)
        n = 2000
        edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
        edges |= {(u, v) for u, v in rng.integers(0, n, (n // 10, 2)).tolist() if u < v}
        g = graph(n, edges, (0,) * n)
        peak = traced_peak(lambda: betweenness_centrality(g))
        assert peak < 200 * labelling.CELLS < n * n * 8 / 2


class TestUnion:
    def test_renamed_chunk_is_each_graph_permuted_by_hand(self):
        # with orders, node order[j] of each graph becomes its node j, and
        # every renamed neighbour list is ascending again
        rng = np.random.default_rng(12)
        graphs = [random_graph(rng, int(rng.integers(1, 12)), 0.5) for _ in range(6)]
        orders = [rng.permutation(len(g.labels)) for g in graphs]
        union = labelling._Union(join(graphs), orders)
        by_hand = join([graph(len(order), np.argsort(order)[g.edges()], g.labels[order])
                        for g, order in zip(graphs, orders)])
        assert union.indptr.tolist() == by_hand.indptr.tolist()
        assert union.indices.tolist() == by_hand.indices.tolist()
        assert union.ids.tolist() == (np.concatenate(orders) + union.off[union.graph]).tolist()


class TestLaneGroups:
    @given(st.lists(st.integers(0, 64) | st.integers(0, 3 * labelling.CELLS // 2), max_size=40),
           st.integers(1, 8))
    def test_consecutive_slices_within_the_budget(self, cells, parts):
        groups = list(lane_groups(cells, parts))
        bounds = [0] + [g.stop for g in groups]
        assert [g.start for g in groups] == bounds[:-1] and bounds[-1] == len(cells)
        budget = min(labelling.CELLS, -(-sum(cells) // parts))
        for g in groups:
            assert g.step is None and g.stop > g.start
            # over the budget only as a lane of its own; the next lane would
            # not have fitted
            assert sum(cells[g]) <= budget or g.stop - g.start == 1
            assert g.stop == len(cells) or sum(cells[g.start:g.stop + 1]) > budget

    def test_no_lanes_no_slices(self):
        assert list(lane_groups([], 3)) == []
        assert list(lane_groups(np.zeros(0, dtype=np.int64))) == []


class TestCanonicalOrder:
    def test_single_node_identity(self):
        g = graph(1, [], (0,))
        assert canonical_order(g).tolist() == [0]

    def test_relabelled_graphs_share_certificate(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            g = random_graph(rng, int(rng.integers(2, 21)), float(rng.uniform(0.05, 0.95)),
                             num_labels=3)
            ref = canonical_certificate(g)
            for rep in range(20):
                h = permute_node_ids(g, [trial, rep])
                assert canonical_certificate(h) == ref

    def test_four_node_graphs_partition_into_iso_classes(self):
        by_cert = {}
        for g in all_simple_graphs(4):
            by_cert.setdefault(canonical_certificate(g), []).append(g)
        assert len(by_cert) == 11
        assert sorted(len(v) for v in by_cert.values()) == FOUR_NODE_CLASS_SIZES

    def test_labels_distinguish_graphs(self):
        g1 = path_graph(3, labels=(0, 1, 0))
        g2 = path_graph(3, labels=(1, 0, 0))
        g3 = path_graph(3, labels=(0, 1, 0))
        assert canonical_certificate(g1) != canonical_certificate(g2)
        assert canonical_certificate(g1) == canonical_certificate(g3)

    def test_degenerate_symmetric_graphs_are_fast(self):
        # edgeless and complete graphs have factorial automorphism groups;
        # the twin-cell collapse must keep them linear (i.e. finish at all)
        empty = graph(30, [], (0,) * 30)
        assert len(canonical_order(empty)) == 30
        complete = graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)], (0,) * 12)
        assert len(canonical_order(complete)) == 12

    def test_capacity_bound(self):
        n = MAX_CANONICAL_NODES + 1
        g = graph(n, [], (0,) * n)
        with pytest.raises(CapacityError, match="bound"):
            canonical_order(g)

    def test_certificates_agree_with_networkx(self):
        # an oracle independent of this code: pairs get equal certificates
        # exactly when networkx finds a label-preserving isomorphism
        nx = pytest.importorskip("networkx")

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from((v, {"label": lab}) for v, lab in enumerate(g.labels.tolist()))
            h.add_edges_from(g.edges().tolist())
            return h

        rng = np.random.default_rng(17)
        outcomes = []
        for trial in range(300):
            part = random_graph(rng, int(rng.integers(2, 6)), float(rng.uniform(0.2, 0.8)),
                                num_labels=2)
            # repeated parts make the automorphism pruning do real work
            g = disjoint_union(*[part] * int(rng.integers(1, 4)),
                               random_graph(rng, int(rng.integers(1, 5)), 0.5, num_labels=2))
            h = permute_node_ids(g, [17, trial])
            if trial % 3:
                # toggle one node pair
                u, v = sorted(int(x) for x in rng.choice(len(h.labels), size=2, replace=False))
                edges = {tuple(e) for e in h.edges().tolist()} ^ {(u, v)}
                h = graph(len(h.labels), edges, h.labels)
            same = nx.is_isomorphic(to_nx(g), to_nx(h),
                                    node_match=lambda a, b: a["label"] == b["label"])
            assert (canonical_certificate(g) == canonical_certificate(h)) == same, trial
            outcomes.append(same)
        assert 0 < sum(outcomes) < len(outcomes)  # both answers occur


class TestBoundedSearch:
    # The pruned search visits at most this many nodes on each family, so
    # these tests cannot flake with the host's speed.
    BUDGET = 150

    @pytest.mark.parametrize("family", SYMMETRIC_FAMILIES)
    def test_symmetric_family_fits_a_small_budget(self, monkeypatch, family):
        monkeypatch.setattr(labelling, "MAX_SEARCH_NODES", self.BUDGET)
        g = SYMMETRIC_FAMILIES[family]()
        start = time.perf_counter()
        ref = canonical_certificate(g)
        assert time.perf_counter() - start < 5.0
        for rep in range(3):
            assert canonical_certificate(permute_node_ids(g, [rep])) == ref

    def test_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(labelling, "MAX_SEARCH_NODES", 10)
        with pytest.raises(CapacityError, match="exceeded 10 nodes"):
            canonical_order(SYMMETRIC_FAMILIES["5-triangles"]())

    def test_benchmark_shapes_stay_far_below_the_budget(self, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        synth = importlib.import_module("synth")
        monkeypatch.setattr(labelling, "MAX_SEARCH_NODES", labelling.MAX_SEARCH_NODES // 10)
        for shape in ("MUTAG", "NCI1"):
            for seed in (1, 2, 3):
                for labels, edges, _ in synth.generate(shape, seed)[0]:
                    canonical_order(graph(len(labels), edges, labels))


class TestRankNodes:
    def test_star_center_first_under_bc(self):
        order = rank_nodes(star_graph(4), "bc")
        assert order[0] == 0

    def test_vertex_transitive_graph_gives_permutation(self):
        order = rank_nodes(cycle_graph(4), "bc")
        assert sorted(order.tolist()) == [0, 1, 2, 3]

    def test_bc_ties_keep_the_canonical_order(self):
        # every node of a cycle has the same betweenness
        g = cycle_graph(7)
        assert rank_nodes(g, "bc").tolist() == canonical_order(g).tolist()
        assert rank_nodes(g, "canonical").tolist() == canonical_order(g).tolist()

    def test_triangle_canonical_consistent_across_relabellings(self):
        g = triangle(labels=(0, 1, 2))
        base = rank_nodes(g, "canonical")
        base_labels = g.labels[base].tolist()
        for perm in itertools.permutations(range(3)):
            h = graph(3, np.array(perm)[g.edges()], g.labels[np.argsort(perm)])
            order = rank_nodes(h, "canonical")
            assert h.labels[order].tolist() == base_labels

    def test_bc_scores_match_plain_brandes(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 12)), float(rng.uniform(0.1, 0.9)),
                             num_labels=2)
            order = rank_nodes(g, "bc")
            assert sorted(order.tolist()) == list(range(len(g.labels)))
            # plain Brandes scores do not increase along the order
            ordered = betweenness_centrality(g)[order]
            assert all(ordered[i] >= ordered[i + 1] - 1e-9 for i in range(len(g.labels) - 1))

    def test_unknown_labelling_rejected(self):
        # nauty is only a command-line alias of canonical
        with pytest.raises(ValueError, match="'nauty'"):
            rank_nodes(triangle(), "nauty")
