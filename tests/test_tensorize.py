import os
import sys

import numpy as np
import pytest

from graphcaps import labelling
from graphcaps.data import PAD, Graph, one_hot, permute_node_ids
from graphcaps.labelling import Procedure, rank_nodes
from graphcaps.tensor_cache import CacheError, load_tensors, save_tensors
from graphcaps.tensorize import (
    assemble_neighbourhood,
    default_width,
    graph_to_tensor,
    node_sequence,
    normalize_receptive_field,
    padded_anchor_count,
    tensorize_dataset,
)
from helpers import (
    flip_grid_byte,
    path_graph,
    random_graph,
    star_graph,
    triangle,
    write_tu_files,
)

from graphcaps.data import load_tu_dataset


class TestNodeSequence:
    def test_small_graph_pads(self):
        g = triangle()
        ranking = rank_nodes(g, Procedure.CANONICAL)
        seq = node_sequence(g, w=5, ranking=ranking)
        assert len(seq) == 5
        assert sorted(seq[:3]) == [0, 1, 2]
        assert seq[3:] == [PAD, PAD]

    def test_large_graph_truncates_to_top_ranked(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 28, 0.2, connected=True)
        ranking = rank_nodes(g, Procedure.BETWEENNESS)
        seq = node_sequence(g, w=18, ranking=ranking)
        assert seq == [int(v) for v in ranking.order[:18]]


class TestNeighbourhoodAssembly:
    def test_isolated_node(self):
        g = Graph(n=3, edges=frozenset({(1, 2)}), node_labels=(0, 0, 0), class_label=0)
        assert assemble_neighbourhood(g, anchor=0, k=4) == [(0, 0)]

    def test_star_ring_overshoot(self):
        got = assemble_neighbourhood(star_graph(4), anchor=0, k=3)
        assert got[0] == (0, 0)
        assert sorted(got[1:]) == [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_path_end_anchor_hand_trace(self):
        # BFS from node 0 of a 10-path reaches 0,1,2,3 within 3 hops
        got = assemble_neighbourhood(path_graph(10), anchor=0, k=4)
        assert got == [(0, 0), (1, 1), (2, 2), (3, 3)]


class TestNormalization:
    def test_pad_tail_when_few_candidates(self):
        g = path_graph(2)
        ranking = rank_nodes(g, Procedure.CANONICAL)
        field = normalize_receptive_field([(0, 0), (1, 1)], ranking, k=4)
        assert field == [0, 1, PAD, PAD]

    def test_anchor_always_first(self):
        g = star_graph(4)
        ranking = rank_nodes(g, Procedure.CANONICAL)
        candidates = assemble_neighbourhood(g, anchor=0, k=3)
        field = normalize_receptive_field(candidates, ranking, k=3)
        assert field[0] == 0

    def test_star_selection_consistent_across_relabellings(self):
        # leaves are interchangeable: whichever two survive the k-cut, the
        # label content of the field must be identical for every relabelling
        g = Graph(n=5, edges=frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}),
                  node_labels=(1, 0, 0, 2, 2), class_label=0)
        ref = None
        for seed in range(8):
            h = permute_node_ids(g, seed)
            ranking = rank_nodes(h, Procedure.CANONICAL)
            anchor = [v for v in range(5) if len(h.adjacency()[v]) == 4][0]
            field = normalize_receptive_field(
                assemble_neighbourhood(h, anchor, k=3), ranking, k=3
            )
            labels = tuple(h.node_labels[m] for m in field)
            if ref is None:
                ref = labels
            assert labels == ref


class TestGraphToTensor:
    def test_shape_and_fibers(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(1, 25)), 0.3, num_labels=7)
            grid = graph_to_tensor(g, w=18, k=10, d=7, procedure=Procedure.BETWEENNESS)
            assert grid.shape == (18, 10) and grid.dtype == np.uint16
            assert grid.max() <= 7
            t = one_hot(grid, 7)
            assert t.shape == (18, 10, 8)
            assert np.array_equal(t.sum(axis=2), np.ones((18, 10)))

    def test_pad_anchor_rows_are_padding_channel(self):
        grid = graph_to_tensor(triangle(), w=5, k=4, d=2, procedure=Procedure.CANONICAL)
        assert np.array_equal(grid[3:], np.full((2, 4), 2))
        t = one_hot(grid, 2)
        for row in (3, 4):
            assert np.array_equal(t[row, :, 2], np.ones(4))
            assert np.array_equal(t[row, :, :2], np.zeros((4, 2)))

    def test_label_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            graph_to_tensor(triangle(labels=(0, 2, 0)), w=3, k=3, d=2)

    @pytest.mark.parametrize("procedure", [Procedure.CANONICAL, Procedure.BETWEENNESS])
    def test_bitwise_permutation_invariance(self, procedure):
        rng = np.random.default_rng(2)
        for trial in range(30):
            g = random_graph(rng, int(rng.integers(2, 21)), float(rng.uniform(0.1, 0.8)),
                             num_labels=5)
            ref = graph_to_tensor(g, w=10, k=6, d=5, procedure=procedure)
            for rep in range(3):
                h = permute_node_ids(g, [trial, rep])
                got = graph_to_tensor(h, w=10, k=6, d=5, procedure=procedure)
                assert np.array_equal(ref, got)

    @pytest.mark.parametrize("procedure, naive_ties, calls", [
        (Procedure.BETWEENNESS, False, 1),
        (Procedure.CANONICAL, False, 1),
        (Procedure.BETWEENNESS, True, 0),
    ])
    def test_canonical_search_and_wl_run_once_per_graph(
        self, monkeypatch, procedure, naive_ties, calls
    ):
        # count calls from every graphcaps module that holds these functions
        counts = {}
        for fn in (labelling.canonical_order, labelling.wl_refine):
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] += 1
                return _fn(*args, **kwargs)

            counts[fn.__name__] = 0
            for name, module in list(sys.modules.items()):
                if name.startswith("graphcaps") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted)
        g = random_graph(np.random.default_rng(3), 12, 0.3, num_labels=3)
        graph_to_tensor(g, w=8, k=4, d=3, procedure=procedure, naive_ties=naive_ties)
        assert counts == {"canonical_order": calls, "wl_refine": calls}

    def test_naive_ties_can_break_invariance(self):
        # the fidelity flag intentionally depends on input numbering; on a
        # symmetric labelled star some relabelling changes the tensor
        g = Graph(n=5, edges=frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}),
                  node_labels=(0, 0, 1, 0, 1), class_label=0)
        ref = graph_to_tensor(g, w=3, k=3, d=2, procedure=Procedure.BETWEENNESS,
                              naive_ties=True)
        seen_different = any(
            not np.array_equal(
                ref,
                graph_to_tensor(
                    permute_node_ids(g, seed), w=3, k=3, d=2,
                    procedure=Procedure.BETWEENNESS, naive_ties=True,
                ),
            )
            for seed in range(20)
        )
        assert seen_different


class TestDatasetTensorization:
    def test_default_width_is_rounded_average(self, tu_dir):
        graphs = [path_graph(4), path_graph(5), triangle()]
        write_tu_files(tu_dir, "WIDTH", graphs)
        ds = load_tu_dataset(tu_dir, "WIDTH")
        assert default_width(ds) == 4  # mean(4, 5, 3) = 4
        assert padded_anchor_count(ds, 4) == 1

    def test_parallel_extraction_matches_serial(self, tu_dir):
        graphs = [random_graph(np.random.default_rng(i), 8, 0.4, num_labels=3)
                  for i in range(12)]
        write_tu_files(tu_dir, "PAR", graphs)
        ds = load_tu_dataset(tu_dir, "PAR")
        serial = tensorize_dataset(ds, w=6, k=4, jobs=1)
        parallel = tensorize_dataset(ds, w=6, k=4, jobs=2)
        assert serial.shape == (12, 6, 4)
        assert np.array_equal(serial, parallel)
        for i, g in enumerate(ds.graphs):
            assert np.array_equal(serial[i], graph_to_tensor(g, w=6, k=4, d=3))


class TestCacheFormat:
    DIGEST = bytes(range(32))
    SHAPE = (5, 4, 3)

    def _grids(self):
        rng = np.random.default_rng(4)
        graphs = [random_graph(rng, 6, 0.5, num_labels=2) for _ in range(5)]
        return np.stack([
            graph_to_tensor(g, w=4, k=3, d=2, procedure=Procedure.CANONICAL) for g in graphs
        ])

    def _save(self, path):
        grids = self._grids()
        save_tensors(path, grids, self.DIGEST)
        return grids

    def _write(self, path, **members):
        with open(path, "wb") as fh:
            np.savez(fh, **members)

    def _rewrite(self, path, edit):
        blob = bytearray(open(path, "rb").read())
        blob = edit(blob)
        with open(path, "wb") as fh:
            fh.write(blob)

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "X_canonical_w4_k3_seed7.gct")
        grids = self._save(path)
        loaded = load_tensors(path, self.DIGEST, self.SHAPE, d=2)
        assert loaded.dtype == np.uint16
        assert np.array_equal(loaded, grids)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.gct")
        with open(path, "wb") as fh:
            fh.write(b"NOTATENSORCACHE" * 4)
        with pytest.raises(CacheError, match="not an npz archive"):
            load_tensors(path, self.DIGEST, self.SHAPE, d=2)

    def test_truncation_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.gct")
        self._save(path)
        self._rewrite(path, lambda blob: blob[:-10])
        with pytest.raises(CacheError):
            load_tensors(path, self.DIGEST, self.SHAPE, d=2)

    def test_flipped_grid_byte_rejected(self, tmp_path):
        path = str(tmp_path / "flip.gct")
        self._save(path)
        flip_grid_byte(path)
        with pytest.raises(CacheError, match="CRC"):
            load_tensors(path, self.DIGEST, self.SHAPE, d=2)

    def test_trailing_bytes_do_not_change_the_grids(self, tmp_path):
        # a zip archive is read from its end record; the members it names are
        # CRC-checked, so bytes after the archive cannot reach the grids
        path = str(tmp_path / "trail.gct")
        grids = self._save(path)
        self._rewrite(path, lambda blob: blob + b"\0\0")
        assert np.array_equal(load_tensors(path, self.DIGEST, self.SHAPE, d=2), grids)

    def test_missing_member_rejected(self, tmp_path):
        path = str(tmp_path / "member.gct")
        self._write(path, grids=self._grids(), version=3)
        with pytest.raises(CacheError, match="members"):
            load_tensors(path, self.DIGEST, self.SHAPE, d=2)

    def test_label_above_padding_rejected(self, tmp_path):
        path = str(tmp_path / "label.gct")
        grids = self._grids()
        grids[-1, -1, -1] = 3
        save_tensors(path, grids, self.DIGEST)
        with pytest.raises(CacheError, match="above the padding label"):
            load_tensors(path, self.DIGEST, self.SHAPE, d=2)

    @pytest.mark.parametrize("shape, dtype", [((5, 4, 2), np.uint16), ((5, 4, 3), np.int32)])
    def test_grids_of_another_shape_or_dtype_rejected(self, tmp_path, shape, dtype):
        path = str(tmp_path / "shape.gct")
        grids = np.zeros(shape, dtype=dtype)
        self._write(path, grids=grids, version=3, digest=np.frombuffer(self.DIGEST, np.uint8))
        with pytest.raises(CacheError, match="expected uint16"):
            load_tensors(path, self.DIGEST, self.SHAPE, d=2)

    def test_other_version_is_stale(self, tmp_path):
        path = str(tmp_path / "v1.gct")
        self._write(path, grids=self._grids(), version=1,
                    digest=np.frombuffer(self.DIGEST, np.uint8))
        with pytest.raises(CacheError, match="version 1"):
            load_tensors(path, self.DIGEST, self.SHAPE, d=2)

    def test_other_dataset_digest_is_stale(self, tmp_path):
        path = str(tmp_path / "digest.gct")
        self._save(path)
        with pytest.raises(CacheError, match="other dataset contents"):
            load_tensors(path, bytes(32), self.SHAPE, d=2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheError, match="No such file"):
            load_tensors(str(tmp_path / "absent.gct"), self.DIGEST, self.SHAPE, d=2)

    def test_documented_byte_layout(self, tmp_path):
        # independent reader: a stored zip of exactly the three documented
        # .npy members, none of which needs pickle
        import zipfile

        grids = self._grids()
        path = str(tmp_path / "layout.gct")
        save_tensors(path, grids, self.DIGEST)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
            assert sorted(i.filename for i in infos) == ["digest.npy", "grids.npy", "version.npy"]
            assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)
            members = {
                i.filename[:-4]: np.lib.format.read_array(archive.open(i), allow_pickle=False)
                for i in infos
            }
        assert members["grids"].dtype == np.dtype("<u2")
        assert np.array_equal(members["grids"], grids)
        assert members["version"].shape == () and int(members["version"]) == 3
        assert members["digest"].dtype == np.uint8
        assert members["digest"].tobytes() == self.DIGEST
