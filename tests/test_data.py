from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcaps.data import (
    DatasetFormatError,
    Graph,
    load_tu_dataset,
    one_hot,
    permute_dataset,
    permute_node_ids,
)
from helpers import random_graph, synthetic_dataset_graphs, triangle, write_tu_files

from conftest import benchmark_data_root


def degree_multiset(g: Graph):
    return sorted(g.degrees())


class TestGraphType:
    def test_edges_normalized_and_deduped(self):
        g = Graph(n=3, edges=frozenset({(1, 0), (0, 1), (2, 1)}), node_labels=(0, 0, 0),
                  class_label=0)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n=2, edges=frozenset({(0, 0)}), node_labels=(0, 0), class_label=0)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(n=2, edges=frozenset({(0, 5)}), node_labels=(0, 0), class_label=0)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="node labels"):
            Graph(n=3, edges=frozenset(), node_labels=(0,), class_label=0)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Graph(n=0, edges=frozenset(), node_labels=(), class_label=0)


class TestLoader:
    def test_single_triangle_dataset(self, tu_dir):
        write_tu_files(tu_dir, "TRI", [triangle()])
        ds = load_tu_dataset(tu_dir, "TRI")
        assert len(ds) == 1
        assert ds.num_classes == 1
        assert ds.num_node_labels == 1
        g = ds.graphs[0]
        assert g.n == 3
        assert len(g.edges) == 3

    def test_roundtrip_preserves_structure(self, tu_dir):
        graphs = synthetic_dataset_graphs(num_graphs=20, seed=3)
        write_tu_files(tu_dir, "SYN", graphs)
        ds = load_tu_dataset(tu_dir, "SYN")
        assert len(ds) == 20
        for orig, loaded in zip(graphs, ds.graphs):
            assert loaded.n == orig.n
            assert degree_multiset(loaded) == degree_multiset(orig)
            assert Counter(loaded.node_labels) == Counter(orig.node_labels)
            assert loaded.class_label == orig.class_label

    def test_indices_remapped_contiguously(self, tu_dir):
        # original labels -1/+1 and node labels 3/7 must become 0-based
        g0 = Graph(n=2, edges=frozenset({(0, 1)}), node_labels=(3, 7), class_label=-1)
        g1 = Graph(n=2, edges=frozenset({(0, 1)}), node_labels=(7, 7), class_label=1)
        write_tu_files(tu_dir, "REMAP", [g0, g1])
        ds = load_tu_dataset(tu_dir, "REMAP")
        assert ds.num_classes == 2
        assert ds.num_node_labels == 2
        assert ds.class_map == {-1: 0, 1: 1}
        assert ds.label_map == {3: 0, 7: 1}
        assert ds.graphs[0].class_label == 0
        assert ds.graphs[1].node_labels == (1, 1)

    def test_missing_file_names_it(self, tu_dir):
        write_tu_files(tu_dir, "BROKEN", [triangle()])
        import os

        os.remove(os.path.join(tu_dir, "BROKEN", "BROKEN_node_labels.txt"))
        with pytest.raises(FileNotFoundError, match="BROKEN_node_labels.txt"):
            load_tu_dataset(tu_dir, "BROKEN")

    def test_unknown_node_reports_line(self, tu_dir):
        base = write_tu_files(tu_dir, "BADEDGE", [triangle()])
        import os

        with open(os.path.join(base, "BADEDGE_A.txt"), "a") as fh:
            fh.write("1, 99\n")
        with pytest.raises(DatasetFormatError, match=r"BADEDGE_A.txt:7"):
            load_tu_dataset(tu_dir, "BADEDGE")

    def test_zero_node_graph_rejected(self, tu_dir):
        base = write_tu_files(tu_dir, "GAP", [triangle(), triangle()])
        import os

        # point every node at graph ids 1 and 3, leaving graph 2 empty
        with open(os.path.join(base, "GAP_graph_indicator.txt"), "w") as fh:
            fh.write("1\n1\n1\n3\n3\n3\n")
        with open(os.path.join(base, "GAP_graph_labels.txt"), "w") as fh:
            fh.write("0\n0\n0\n")
        with pytest.raises(DatasetFormatError, match="zero nodes"):
            load_tu_dataset(tu_dir, "GAP")

    def test_cross_graph_edge_rejected(self, tu_dir):
        base = write_tu_files(tu_dir, "XGRAPH", [triangle(), triangle()])
        import os

        with open(os.path.join(base, "XGRAPH_A.txt"), "a") as fh:
            fh.write("1, 4\n")
        with pytest.raises(DatasetFormatError, match="crosses graphs"):
            load_tu_dataset(tu_dir, "XGRAPH")


class TestPermutation:
    def test_single_node_unchanged(self):
        g = Graph(n=1, edges=frozenset(), node_labels=(0,), class_label=1)
        assert permute_node_ids(g, 123) == g

    def test_triangle_stays_triangle(self):
        g = triangle(labels=(0, 1, 2))
        h = permute_node_ids(g, 7)
        assert degree_multiset(h) == [2, 2, 2]
        assert Counter(h.node_labels) == Counter(g.node_labels)
        assert h.class_label == g.class_label

    def test_invariants_over_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(1, 15))
            g = random_graph(rng, n, float(rng.uniform(0, 1)), num_labels=4)
            h = permute_node_ids(g, int(rng.integers(0, 2**31)))
            assert degree_multiset(h) == degree_multiset(g)
            assert Counter(h.node_labels) == Counter(g.node_labels)
            assert h.class_label == g.class_label

    def test_permuted_dataset_roundtrips_through_files(self, tu_dir):
        graphs = synthetic_dataset_graphs(num_graphs=12, seed=5)
        write_tu_files(tu_dir, "ORIG", graphs)
        original = load_tu_dataset(tu_dir, "ORIG")
        permuted = permute_dataset(original, seed=9)
        write_tu_files(tu_dir, "PERM", permuted.graphs)
        reloaded = load_tu_dataset(tu_dir, "PERM")
        for a, b in zip(original.graphs, reloaded.graphs):
            assert degree_multiset(a) == degree_multiset(b)
            assert Counter(a.node_labels) == Counter(b.node_labels)
            assert a.class_label == b.class_label


class TestOneHot:
    def test_basic_rows(self):
        assert one_hot([0], d=2).tolist() == [[1.0, 0.0, 0.0]]
        assert one_hot([2], d=2).tolist() == [[0.0, 0.0, 1.0]]  # label d is padding
        assert one_hot([1, 0], d=2).tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        assert one_hot(np.array([[0, 2]], dtype=np.uint16), d=2).shape == (1, 2, 3)

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            one_hot([3], d=2)
        with pytest.raises(ValueError, match="outside"):
            one_hot([-1], d=2)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), max_size=30),
        st.integers(min_value=5, max_value=8),
    )
    def test_rows_sum_to_one(self, labels, d):
        out = one_hot(np.array(labels, dtype=np.uint16), d)
        assert out.shape == (len(labels), d + 1)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert np.array_equal(out.sum(axis=1), np.ones(len(labels)))


@pytest.mark.skipif(benchmark_data_root() is None,
                    reason="TU benchmark data not present (no network in build env); "
                           "set GRAPHCAPS_DATA to run")
class TestRealBenchmarks:
    def test_mutag_statistics(self):
        ds = load_tu_dataset(benchmark_data_root(), "MUTAG")
        stats = ds.stats()
        assert stats["num_graphs"] == 188
        assert stats["num_classes"] == 2
        assert stats["num_node_labels"] == 7
        assert stats["max_graph_size"] == 28
        assert round(stats["avg_graph_size"]) == 18
        assert abs(max(stats["class_fractions"]) - 0.6649) < 0.001

    def test_proteins_statistics(self):
        ds = load_tu_dataset(benchmark_data_root(), "PROTEINS")
        stats = ds.stats()
        assert stats["num_graphs"] == 1113
        assert stats["num_classes"] == 2
        assert stats["num_node_labels"] == 3
