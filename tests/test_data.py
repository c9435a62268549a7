import glob
import importlib
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcaps import data
from graphcaps.data import (
    DatasetFormatError,
    _loadtxt_rows,
    _read_lines,
    _read_rows,
    _read_text,
    Graphs,
    graph,
    load_tu_dataset,
    one_hot,
    permute_node_ids,
    read_labels,
)
from graphcaps.selftest import random_graph
from helpers import load, synthetic_dataset_graphs, triangle, write_tu_files

from conftest import benchmark_data_root


def degree_multiset(g: Graphs):
    return sorted(np.diff(g.indptr).tolist())


def described(ds: Graphs) -> list:
    """Each graph of ``ds`` as (node count, edges, labels, class) lists."""
    return [(len(g.labels), g.edges().tolist(), g.labels.tolist(), int(g.classes[0]))
            for g in ds]


def reading(rows) -> tuple:
    """What a ``_read_rows`` result says: the values, each row's line number,
    and the (check, row) pairs that fail."""
    values, lineno, checks = rows
    failing = [(c, int(row)) for c, (bad, _) in enumerate(checks) for row in np.flatnonzero(bad)]
    return values.tolist(), [lineno(row) for row in range(len(values))], failing


def write_raw(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


class TestGraphType:
    def test_edges_normalized_and_deduped(self):
        g = graph(3, [(1, 0), (0, 1), (2, 1)], (0, 0, 0))
        assert g.edges().tolist() == [[0, 1], [1, 2]]
        assert (g.indptr.tolist(), g.indices.tolist()) == ([0, 1, 3, 4], [1, 0, 2, 1])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph(2, [(0, 0)], (0, 0))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            graph(2, [(0, 5)], (0, 0))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="node labels"):
            graph(3, [], (0,))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            graph(0, [], ())


def test_no_module_holds_graphs_as_python_sets():
    # a dataset is one CSR from the load to every chunk: no per-graph set of
    # edge tuples, and no cached adjacency lists beside it
    for path in glob.glob(os.path.join(os.path.dirname(data.__file__), "*.py")):
        with open(path) as fh:
            source = fh.read()
        assert "frozenset(" not in source and ".adjacency(" not in source, path


class TestLoader:
    def test_single_triangle_dataset(self, tu_dir):
        write_tu_files(tu_dir, "TRI", [triangle()])
        labels = read_labels(tu_dir, "TRI")
        ds = load_tu_dataset(tu_dir, "TRI", labels)
        assert len(ds) == 1
        assert labels.num_classes == 1
        assert labels.num_node_labels == 1
        g = ds[0]
        assert len(g.labels) == 3
        assert len(g.edges()) == 3

    def test_roundtrip_preserves_structure(self, tu_dir):
        graphs = synthetic_dataset_graphs(num_graphs=20, seed=3)
        write_tu_files(tu_dir, "SYN", graphs)
        ds = load(tu_dir, "SYN")
        assert len(ds) == 20
        for orig, loaded in zip(graphs, ds):
            assert len(loaded.labels) == len(orig.labels)
            assert degree_multiset(loaded) == degree_multiset(orig)
            assert Counter(loaded.labels.tolist()) == Counter(orig.labels.tolist())
            assert loaded.classes.tolist() == orig.classes.tolist()

    def test_dataset_is_one_csr(self, tu_dir):
        # the graphs side by side, each edge once at each end, each row ascending
        graphs = synthetic_dataset_graphs(num_graphs=8, seed=3)
        write_tu_files(tu_dir, "SYN", graphs)
        ds = load(tu_dir, "SYN")
        sizes = [len(g.labels) for g in graphs]
        assert ds.offsets.tolist() == np.cumsum([0] + sizes).tolist()
        assert ds.sizes.tolist() == sizes
        assert described(ds) == described(graphs)
        rows = np.split(ds.indices, ds.indptr[1:-1])
        assert all(np.all(np.diff(row) > 0) for row in rows)
        assert ds.indptr[-1] == 2 * sum(len(g.edges()) for g in graphs)

    def test_repeated_edge_lines_change_nothing(self, tu_dir):
        graphs = synthetic_dataset_graphs(num_graphs=6, seed=8)
        base = write_tu_files(tu_dir, "REP", graphs)
        plain = load(tu_dir, "REP")
        path = os.path.join(base, "REP_A.txt")
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines + lines[::3]) + "\n")
        repeated = load(tu_dir, "REP")
        assert repeated.indptr.tolist() == plain.indptr.tolist()
        assert repeated.indices.tolist() == plain.indices.tolist()

    def test_nodes_grouped_by_graph_in_file_order(self, tu_dir):
        # graph 1's nodes come first in the files, and interleave with graph 0's
        base = write_tu_files(tu_dir, "MIX", [triangle(labels=(0, 1, 2)), triangle()])
        for suffix, text in [("graph_indicator", "2\n1\n2\n1\n1\n2\n"),
                             ("node_labels", "0\n3\n0\n4\n5\n0\n"),
                             ("A", "1, 3\n3, 6\n6, 1\n2, 4\n4, 5\n")]:
            with open(os.path.join(base, f"MIX_{suffix}.txt"), "w") as fh:
                fh.write(text)
        ds = load(tu_dir, "MIX")
        # file nodes 2, 4, 5 are graph 0's nodes 0-2, and 1, 3, 6 graph 1's
        assert ds.labels.tolist() == [1, 2, 3, 0, 0, 0]
        assert ds.edges().tolist() == [[0, 1], [1, 2], [3, 4], [3, 5], [4, 5]]

    def test_indices_remapped_contiguously(self, tu_dir):
        # original labels -1/+1 and node labels 3/7 must become 0-based
        g0 = graph(2, [(0, 1)], (3, 7), cls=-1)
        g1 = graph(2, [(0, 1)], (7, 7), cls=1)
        write_tu_files(tu_dir, "REMAP", [g0, g1])
        labels = read_labels(tu_dir, "REMAP")
        ds = load_tu_dataset(tu_dir, "REMAP", labels)
        assert labels.num_classes == 2
        assert labels.num_node_labels == 2
        assert ds.classes.tolist() == [0, 1]
        assert [g.labels.tolist() for g in ds] == [[0, 1], [1, 1]]

    def test_missing_file_names_it(self, tu_dir):
        write_tu_files(tu_dir, "BROKEN", [triangle()])
        import os

        os.remove(os.path.join(tu_dir, "BROKEN", "BROKEN_node_labels.txt"))
        with pytest.raises(FileNotFoundError, match="BROKEN_node_labels.txt"):
            load(tu_dir, "BROKEN")

    def test_unknown_node_reports_line(self, tu_dir):
        base = write_tu_files(tu_dir, "BADEDGE", [triangle()])
        import os

        with open(os.path.join(base, "BADEDGE_A.txt"), "a") as fh:
            fh.write("1, 99\n")
        with pytest.raises(DatasetFormatError, match=r"BADEDGE_A.txt:7"):
            load(tu_dir, "BADEDGE")

    def test_zero_node_graph_rejected(self, tu_dir):
        base = write_tu_files(tu_dir, "GAP", [triangle(), triangle()])
        import os

        # point every node at graph ids 1 and 3, leaving graph 2 empty
        with open(os.path.join(base, "GAP_graph_indicator.txt"), "w") as fh:
            fh.write("1\n1\n1\n3\n3\n3\n")
        with open(os.path.join(base, "GAP_graph_labels.txt"), "w") as fh:
            fh.write("0\n0\n0\n")
        with pytest.raises(DatasetFormatError, match="zero nodes"):
            load(tu_dir, "GAP")

    def test_cross_graph_edge_rejected(self, tu_dir):
        base = write_tu_files(tu_dir, "XGRAPH", [triangle(), triangle()])
        import os

        with open(os.path.join(base, "XGRAPH_A.txt"), "a") as fh:
            fh.write("1, 4\n")
        with pytest.raises(DatasetFormatError, match="crosses graphs"):
            load(tu_dir, "XGRAPH")

    @staticmethod
    def _error(tu_dir, suffix, text, append=False, graphs=2):
        """The loader's message after writing ``text`` to (or appending it
        to) one file of a dataset of triangles, and that file's path."""
        base = write_tu_files(tu_dir, "BAD", [triangle()] * graphs)
        path = os.path.join(base, f"BAD_{suffix}.txt")
        with open(path, "a" if append else "w") as fh:
            fh.write(text)
        with pytest.raises(DatasetFormatError) as exc:
            load(tu_dir, "BAD")
        return str(exc.value), path

    @pytest.mark.parametrize("suffix, text, where", [
        ("graph_indicator", "1\n1\n\n1\n2\n2 2\n2\n", "6: expected an integer, got '2 2'"),
        ("graph_labels", "0\n1.0\n", "2: expected an integer, got '1.0'"),
        ("node_labels", "0\n\n x \n0\n0\n0\n0\n", "3: expected an integer, got ' x '"),
        ("A", "1, 2\n\n2, v\n", "3: expected an integer, got 'v'"),
        ("A", "1, 2\n2, 3, 1\n", "2: expected 'u, v', got '2, 3, 1'"),
        ("A", "1, 2\n2\n", "2: expected 'u, v', got '2'"),
        ("A", "1, 2\n, ,\n", "2: expected 'u, v', got ', ,'"),
        ("A", "1, 2\n1,,2\n", "2: expected 'u, v', got '1,,2'"),
        ("A", "1, 2\n2, 3,\n", "2: expected 'u, v', got '2, 3,'"),
        ("A", "1, 2\n, 1\n", "2: expected 'u, v', got ', 1'"),
        ("A", "1, 2\n2 ,\t\n", "2: expected 'u, v', got '2 ,\\t'"),
        ("A", "1, 2\n5, 5\n", "2: self-loop on node 5"),
        ("A", "1, 2\n3, 7\n", "2: edge (3, 7) references an unknown node"),
        ("A", "1, 2\n4, 3\n", "2: edge (4, 3) crosses graphs 1 and 0"),
    ])
    def test_bad_line_named_by_path_and_lineno(self, tu_dir, suffix, text, where):
        message, path = self._error(tu_dir, suffix, text)
        assert message == f"{path}:{where}"

    def test_first_bad_line_wins(self, tu_dir):
        # a line's checks run in order, and the earliest bad line is named
        message, path = self._error(tu_dir, "A", "1, 2\n9, 9\n2, 2\n1, x\n")
        assert message == f"{path}:2: edge (9, 9) references an unknown node"
        message, path = self._error(tu_dir, "A", "1, 2\n2, 2\n1, x\n9, 9\n")
        assert message == f"{path}:2: self-loop on node 2"

    def test_line_endings_and_signs_load_the_same(self, tu_dir, monkeypatch):
        # CRLF endings and '+' signs still take numpy's reader; a Unicode
        # digit, which int() reads, sends one file through the line-by-line
        # reader
        graphs = synthetic_dataset_graphs(num_graphs=12, seed=4)
        plain = load(tu_dir, os.path.basename(write_tu_files(tu_dir, "LF", graphs)))
        base = write_tu_files(tu_dir, "CRLF", graphs)
        for fname in os.listdir(base):
            path = os.path.join(base, fname)
            text = open(path).read().replace("\n", "\r\n").replace(" ", " +")
            if fname.endswith("graph_indicator.txt"):
                text = text.replace("1", "\u0661", 1)
            open(path, "w", newline="").write("\r\n" + text)
        read_lines = []

        def spy(text, width):
            read_lines.append(text)
            return _read_lines(text, width)
        monkeypatch.setattr(data, "_read_lines", spy)
        other = load(tu_dir, "CRLF")
        assert len(read_lines) == 1 and read_lines[0].startswith("\n\u0661")
        assert described(other) == described(plain)

    def test_tu_layout_takes_numpy_reader(self, tu_dir, monkeypatch):
        # the layout of the test and benchmark writers never needs the
        # line-by-line reader
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        synth = importlib.import_module("synth")
        graphs = synthetic_dataset_graphs(num_graphs=12, seed=6)
        write_tu_files(tu_dir, "HELPER", graphs)
        synth.write_tu(tu_dir, "MUTAG", synth.generate("MUTAG", 1)[0])

        def refuse(*_args):
            raise AssertionError("line-by-line reader called")
        monkeypatch.setattr(data, "_read_lines", refuse)
        assert len(load(tu_dir, "HELPER")) == 12
        assert len(load(tu_dir, "MUTAG")) == 188

    @settings(max_examples=300)
    @given(st.integers(1, 2), st.lists(st.tuples(
        st.lists(st.integers(-10**19, 10**19), min_size=1, max_size=3),
        st.sampled_from([" ", ", ", "\t", ",", " + ", " +", ",,", " ,", "\x0c"]),
        st.sampled_from(["\n", "\n\n", " \n", "\r\n", "\r", "\n \n", "\x0c\n"])),
        max_size=8))
    def test_plain_layout_parse_matches_int(self, tmp_path_factory, width, lines):
        # whenever numpy's reader takes a text, it reads the values and line
        # numbers that int() and str.split() read, line by line; form feeds,
        # empty fields and whitespace-only lines send texts the other way
        text = "".join(sep.join(map(str, values)) + end for values, sep, end in lines)
        path = write_raw(str(tmp_path_factory.getbasetemp() / "rows.txt"), text)
        assert reading(_read_rows(path, width)) == reading(_read_lines(_read_text(path), width))

    @settings(max_examples=200)
    @given(st.integers(1, 2).flatmap(lambda width: st.tuples(st.just(width), st.lists(st.tuples(
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=width, max_size=width),
        st.sampled_from(["{}", "{:+d}"]),
        st.sampled_from([", ", ",", " , ", "\t,"]),
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["\n", "\n\n", "\r\n", "\r"])), min_size=1, max_size=8))))
    def test_numpy_reader_takes_the_plain_layout(self, tmp_path_factory, width_lines):
        # int64 values with optional signs and blanks, comma-separated when
        # two to a line: numpy's reader takes every such text
        width, lines = width_lines
        text = "".join(pad + sep.join(map(form.format, values)) + pad + end
                       for values, form, sep, pad, end in lines)
        path = write_raw(str(tmp_path_factory.getbasetemp() / "plain.txt"), text)
        assert _loadtxt_rows(path, _read_text(path), width) is not None
        assert reading(_read_rows(path, width)) == reading(_read_lines(_read_text(path), width))

    def test_plain_layout_bounds(self, tmp_path):
        def rows(text, width):
            path = write_raw(str(tmp_path / "rows.txt"), text)
            got = reading(_read_rows(path, width))
            assert got == reading(_read_lines(_read_text(path), width))
            return got, _loadtxt_rows(path, _read_text(path), width) is not None

        assert rows("1, 2\n\n-3, 4\n", 2) == (([[1, 2], [-3, 4]], [1, 3], []), True)
        assert rows("1, 2\n\n-3\t4\n", 2) == (([[1, 2], [-3, 4]], [1, 3], []), False)
        assert rows("1 2\n", 2) == (([[1, 2]], [1], []), False)
        # an empty field makes a wrong line (check 0), whatever else the line holds
        for text in ("1,,2\n", ", 1, 2\n", "1, 2,\n", ", 1\n", "1 2,\n", " ,2\n"):
            assert rows(text, 2) == (([[0, 0]], [1], [(0, 0)]), False)
        assert rows(f"{2**63 - 1}\n \n-{2**63}\r\n", 1) == (
            ([[2**63 - 1], [-2**63]], [1, 3], []), True)
        for text in ("+1\n", "1\r\n", "1\r2\n", "\t-1 \n"):
            assert rows(text, 1)[1]
        for text in ("+1, -2\n", "1 ,\t2\r\n", "\n\n1, 2"):
            assert rows(text, 2)[1]
        for text in (f"{2**63}\n", "1,\n", "1 2\n", "-\n", "1-2\n", "1\x0c\n", "", " \n"):
            assert not rows(text, 1)[1]
        for text in ("1\n", "1, 2, 3\n", ",\n1, 2\n", "1 2\x0b\n", "1,,2\n", "1, 2\n \n3, 4\n",
                     "1, 2,\n"):
            assert not rows(text, 2)[1]

    @pytest.mark.parametrize("suffix, text, what", [
        ("node_labels", "0\n0\n0\n0\n0\n", "5 node labels for 6 nodes"),
        ("node_labels", "0\n" * 7, "7 node labels for 6 nodes"),
        ("graph_labels", "0\n", "1 class labels for 2 graphs"),
    ])
    def test_label_count_mismatch(self, tu_dir, suffix, text, what):
        message, path = self._error(tu_dir, suffix, text)
        assert message == f"{path}: {what}"


class TestPermutation:
    def test_single_node_unchanged(self):
        g = graph(1, [], (0,), cls=1)
        assert described(permute_node_ids(g, 123)) == described(g) == [(1, [], [0], 1)]

    def test_triangle_stays_triangle(self):
        g = triangle(labels=(0, 1, 2))
        h = permute_node_ids(g, 7)
        assert degree_multiset(h) == [2, 2, 2]
        assert Counter(h.labels.tolist()) == Counter(g.labels.tolist())
        assert h.classes.tolist() == g.classes.tolist()

    def test_invariants_over_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(1, 15))
            g = random_graph(rng, n, float(rng.uniform(0, 1)), num_labels=4)
            h = permute_node_ids(g, int(rng.integers(0, 2**31)))
            assert degree_multiset(h) == degree_multiset(g)
            assert Counter(h.labels.tolist()) == Counter(g.labels.tolist())
            assert h.classes.tolist() == g.classes.tolist()

    def test_permuted_dataset_roundtrips_through_files(self, tu_dir):
        graphs = synthetic_dataset_graphs(num_graphs=12, seed=5)
        write_tu_files(tu_dir, "ORIG", graphs)
        original = load(tu_dir, "ORIG")
        permuted = [permute_node_ids(g, [9, i]) for i, g in enumerate(original)]
        write_tu_files(tu_dir, "PERM", permuted)
        reloaded = load(tu_dir, "PERM")
        for a, b in zip(original, reloaded):
            assert degree_multiset(a) == degree_multiset(b)
            assert Counter(a.labels.tolist()) == Counter(b.labels.tolist())
            assert a.classes.tolist() == b.classes.tolist()


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
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        assert np.array_equal(out.sum(axis=1), np.ones(len(labels)))


@pytest.mark.skipif(benchmark_data_root() is None,
                    reason="TU benchmark data not present (no network in build env); "
                           "set GRAPHCAPS_DATA to run")
class TestRealBenchmarks:
    def test_mutag_statistics(self):
        labels = read_labels(benchmark_data_root(), "MUTAG")
        ds = load_tu_dataset(benchmark_data_root(), "MUTAG", labels)
        sizes = ds.sizes
        assert len(ds) == 188
        assert labels.num_classes == 2
        assert labels.num_node_labels == 7
        assert max(sizes) == 28
        assert round(np.mean(sizes)) == 18
        assert abs(np.bincount(ds.classes).max() / len(ds) - 0.6649) < 0.001

    def test_proteins_statistics(self):
        labels = read_labels(benchmark_data_root(), "PROTEINS")
        ds = load_tu_dataset(benchmark_data_root(), "PROTEINS", labels)
        assert len(ds) == 1113
        assert labels.num_classes == 2
        assert labels.num_node_labels == 3
