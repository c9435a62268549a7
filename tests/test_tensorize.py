import hashlib
import os

import numpy as np
import pytest

from graphcaps import labelling, tensorize
from graphcaps.data import PAD, Graphs, graph, one_hot, permute_node_ids
from graphcaps.labelling import betweenness_centrality, rank_nodes
from graphcaps.tensor_cache import VERSION, CacheError, load_tensors, save_tensors
from graphcaps.labelling import _Bfs, _fields, _Union
from graphcaps.tensorize import (
    default_width,
    graph_to_tensor,
    padded_anchor_count,
    tensorize_dataset,
)
from graphcaps.selftest import random_graph
from helpers import (count_calls, cycle_graph, disjoint_union, flip_grid_byte, join, load,
                     path_graph, reference_grid, star_graph, synthetic_dataset_graphs, triangle,
                     write_tu_files)


def fields(g: Graphs, anchors, place, k: int) -> list:
    """The receptive fields of ``anchors`` in ``g`` from the batched field
    pass, where ``place[v]`` is node v's position in the ranked order."""
    union = _Union(g)
    out = np.full((len(anchors), k), PAD)
    _fields(union, _Bfs(union, np.array(anchors), reach=k), np.asarray(place), out)
    return out.tolist()


def place_of(g: Graphs, labelling: str) -> np.ndarray:
    """Each node's position in the ranked order."""
    return np.argsort(rank_nodes(g, labelling))


class TestNodeSequence:
    # the anchors, PATCHY-SAN's node sequence: with node v labelled v, a
    # grid's first column names them
    def test_small_graph_pads(self):
        grid = graph_to_tensor(triangle(labels=(0, 1, 2)), w=5, k=1, d=3, labelling="canonical")
        assert sorted(grid[:3, 0].tolist()) == [0, 1, 2]
        assert grid[3:, 0].tolist() == [3, 3]

    def test_large_graph_truncates_to_top_ranked(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 28, 0.2, connected=True)
        g = graph(28, g.edges(), range(28))
        grid = graph_to_tensor(g, w=18, k=1, d=28, labelling="bc")
        assert grid[:, 0].tolist() == rank_nodes(g, "bc")[:18].tolist()


class TestNeighbourhoodAssembly:
    def test_isolated_node(self):
        g = graph(3, [(1, 2)], (0, 0, 0))
        assert fields(g, [0], np.arange(3), k=4) == [[0, PAD, PAD, PAD]]

    def test_star_ring_overshoot(self):
        # the hop-1 ring of four leaves is taken whole, then cut by place
        place = [0, 4, 3, 2, 1]
        assert fields(star_graph(4), [0], place, k=3) == [[0, 4, 3]]
        assert fields(star_graph(4), [0], np.arange(5), k=3) == [[0, 1, 2]]

    def test_path_end_anchor_hand_trace(self):
        # BFS from node 0 of a 10-path reaches 0,1,2,3 within 3 hops
        assert fields(path_graph(10), [0], np.arange(10), k=4) == [[0, 1, 2, 3]]

    def test_lanes_of_one_pass_are_independent(self):
        g = path_graph(5)
        assert fields(g, [4, 0, 2], np.arange(5), k=3) == [[4, 3, 2], [0, 1, 2], [2, 1, 3]]


class TestNormalization:
    def test_pad_tail_when_few_candidates(self):
        assert fields(path_graph(2), [0], place_of(path_graph(2), "canonical"), k=4) == [
            [0, 1, PAD, PAD]]

    def test_anchor_always_first(self):
        # the anchor is last in the order, yet hop 0 comes first
        assert fields(star_graph(4), [0], [4, 0, 1, 2, 3], k=3) == [[0, 1, 2]]

    def test_rings_ordered_by_place(self):
        # hop first, then place: node 3 outranks node 1 but is a hop further
        g = graph(4, [(0, 2), (1, 2), (0, 3)], (0,) * 4)
        assert fields(g, [2], [2, 1, 3, 0], k=3) == [[2, 1, 0]]

    def test_star_selection_consistent_across_relabellings(self):
        # leaves are interchangeable: whichever two survive the k-cut, the
        # label content of the field must be identical for every relabelling
        g = graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], (1, 0, 0, 2, 2))
        ref = None
        for seed in range(8):
            h = permute_node_ids(g, seed)
            anchor = int(np.flatnonzero(np.diff(h.indptr) == 4)[0])
            [field] = fields(h, [anchor], place_of(h, "canonical"), k=3)
            labels = tuple(h.labels[field].tolist())
            if ref is None:
                ref = labels
            assert labels == ref


class TestGraphToTensor:
    def test_shape_and_fibers(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(1, 25)), 0.3, num_labels=7)
            grid = graph_to_tensor(g, w=18, k=10, d=7, labelling="bc")
            assert grid.shape == (18, 10) and grid.dtype == np.uint16
            assert grid.max() <= 7
            t = one_hot(grid, 7)
            assert t.shape == (18, 10, 8)
            assert np.array_equal(t.sum(axis=2), np.ones((18, 10)))

    def test_pad_anchor_rows_are_padding_channel(self):
        grid = graph_to_tensor(triangle(), w=5, k=4, d=2, labelling="canonical")
        assert np.array_equal(grid[3:], np.full((2, 4), 2))
        t = one_hot(grid, 2)
        for row in (3, 4):
            assert np.array_equal(t[row, :, 2], np.ones(4))
            assert np.array_equal(t[row, :, :2], np.zeros((4, 2)))

    def test_label_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            graph_to_tensor(triangle(labels=(0, 2, 0)), w=3, k=3, d=2)

    def test_unknown_labelling_rejected_before_the_search(self, monkeypatch):
        # the search would raise CapacityError on the 4-cycle
        monkeypatch.setattr(labelling, "MAX_SEARCH_NODES", 1)
        ds = join([cycle_graph(4)])
        for extract in (lambda: rank_nodes(cycle_graph(4), "nauty"),
                        lambda: tensorize_dataset(ds, w=3, k=2, labelling="nauty")):
            with pytest.raises(ValueError, match="'nauty'"):
                extract()

    @pytest.mark.parametrize("labelling", ["canonical", "bc"])
    def test_bitwise_permutation_invariance(self, labelling):
        rng = np.random.default_rng(2)
        for trial in range(30):
            g = random_graph(rng, int(rng.integers(2, 21)), float(rng.uniform(0.1, 0.8)),
                             num_labels=5)
            ref = graph_to_tensor(g, w=10, k=6, d=5, labelling=labelling)
            for rep in range(3):
                h = permute_node_ids(g, [trial, rep])
                got = graph_to_tensor(h, w=10, k=6, d=5, labelling=labelling)
                assert np.array_equal(ref, got)

    @pytest.mark.parametrize("ranking", ["bc", "canonical"])
    def test_canonical_search_runs_once_and_brandes_only_under_bc(self, monkeypatch, ranking):
        counts = count_calls(monkeypatch, labelling.canonical_order, labelling._brandes)
        rng = np.random.default_rng(3)
        graphs = [random_graph(rng, 12, 0.3, num_labels=3) for _ in range(5)]
        ds = join(graphs)
        tensorize_dataset(ds, w=8, k=4, labelling=ranking)
        # one chunk: one search per graph, and one Brandes pass for all of them
        assert counts == {"canonical_order": 5, "_brandes": int(ranking == "bc")}

    def test_bc_field_ordered_by_betweenness(self):
        # hub 0 (label 0) with neighbours 1, 2, 3 (labels 1, 2, 3); node 2
        # carries one pendant leaf and node 3 two.  Betweenness: hub 11,
        # node 3 9, node 2 5, node 1 0, so the hub's hop-1 ring comes out
        # 3, 2, 1, where the canonical order, label-major, gives 1, 2, 3.
        g = graph(7, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5), (3, 6)], (0, 1, 2, 3, 0, 0, 0))
        assert betweenness_centrality(g).tolist() == [11.0, 0.0, 5.0, 9.0, 0.0, 0.0, 0.0]
        for seed in range(4):
            h = permute_node_ids(g, seed)
            assert graph_to_tensor(h, w=1, k=4, d=4, labelling="bc").tolist() == [[0, 3, 2, 1]]

    # sha256 of the stacked (60, 10, 6) grids of synthetic_dataset_graphs(60,
    # seed 7) at d=3: any change to anchor choice or field order shows here
    GOLDEN = {
        "canonical": "2f48741069627b5de3658507828fe5ab52dcfa8e96df0a678d20cd6dce624c8a",
        "bc": "e6183d8edab3a28c981e9e1799399c5c00fc0fb2acb41e4af3e3f2ccf1c777c8",
    }

    @pytest.mark.parametrize("labelling", ["canonical", "bc"])
    def test_golden_grids(self, labelling):
        graphs = synthetic_dataset_graphs(num_graphs=60, seed=7)
        grids = np.stack([graph_to_tensor(g, w=10, k=6, d=3, labelling=labelling)
                          for g in graphs])
        assert hashlib.sha256(grids.astype("<u2").tobytes()).hexdigest() == self.GOLDEN[labelling]


class TestDatasetTensorization:
    def test_default_width_is_rounded_average(self, tu_dir):
        graphs = [path_graph(4), path_graph(5), triangle()]
        write_tu_files(tu_dir, "WIDTH", graphs)
        ds = load(tu_dir, "WIDTH")
        assert default_width(ds.sizes) == 4  # mean(4, 5, 3) = 4
        assert padded_anchor_count(ds, 4) == 1

    def test_parallel_extraction_matches_serial(self, tu_dir):
        graphs = [random_graph(np.random.default_rng(i), 8, 0.4, num_labels=3)
                  for i in range(12)]
        write_tu_files(tu_dir, "PAR", graphs)
        ds = load(tu_dir, "PAR")
        serial, orders = tensorize_dataset(ds, w=6, k=4, jobs=1)
        parallel, parallel_orders = tensorize_dataset(ds, w=6, k=4, jobs=2)
        assert serial.shape == (12, 6, 4)
        assert np.array_equal(serial, parallel)
        for i, g in enumerate(ds):
            assert np.array_equal(serial[i], graph_to_tensor(g, w=6, k=4, d=3))
            assert np.array_equal(orders[i], labelling.canonical_order(g))
            assert np.array_equal(parallel_orders[i], orders[i])
        # given orders replace the search and give the same grids
        for jobs in (1, 2):
            given, same = tensorize_dataset(ds, w=6, k=4, jobs=jobs, orders=orders)
            assert given.tobytes() == serial.tobytes()
            assert all(np.array_equal(a, b) for a, b in zip(same, orders, strict=True))

    def test_chunk_tasks_carry_slices_not_graphs(self, tu_dir, monkeypatch):
        # extraction workers inherit the graphs and orders at the fork
        write_tu_files(tu_dir, "PAR", [random_graph(np.random.default_rng(i), 8, 0.4)
                                       for i in range(12)])
        ds = load(tu_dir, "PAR")
        sent, fork_map = [], tensorize.fork_map

        def record(fn, items, *rest, **named):
            sent.extend(items)
            return fork_map(fn, items, *rest, **named)

        monkeypatch.setattr(tensorize, "fork_map", record)
        _, orders = tensorize_dataset(ds, w=6, k=4, jobs=2)
        tensorize_dataset(ds, w=6, k=4, jobs=2, orders=orders)
        assert sent and all(isinstance(item, slice) for item in sent)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        ds = join([triangle()])
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            tensorize_dataset(ds, w=3, k=2, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_capacity_error_names_the_graph(self, monkeypatch, jobs):
        # a one-node search fits the labelled path and the triangle (a twin
        # cell), not the 4-cycle
        monkeypatch.setattr(labelling, "MAX_SEARCH_NODES", 1)
        graphs = [path_graph(3, labels=(0, 1, 2)), triangle(), cycle_graph(4), triangle()]
        ds = join(graphs)
        with pytest.raises(labelling.CapacityError, match=r"^graph 2: canonical search"):
            tensorize_dataset(ds, w=3, k=2, jobs=jobs)


class TestBatchedExtraction:
    """Grids from the chunk-level passes equal the serial per-graph reference
    bit for bit, whatever the chunk budget and the number of workers."""

    def dataset(self) -> Graphs:
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, int(rng.integers(1, 25)), float(rng.uniform(0.0, 0.7)),
                               num_labels=4) for _ in range(40)]
        graphs += [disjoint_union(triangle(labels=(0, 1, 2)), path_graph(3)),
                   graph(4, [], (3, 2, 1, 0))]
        return join(graphs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("budget", ["1-cell", "7-graphs", "everything"])
    @pytest.mark.parametrize("ranking", ["bc", "canonical"])
    def test_grids_match_the_serial_reference(self, monkeypatch, ranking, budget, jobs):
        ds = self.dataset()
        cells = {"1-cell": 1, "7-graphs": 7 * int(ds.sizes.max()) ** 2,
                 "everything": int(ds.sizes.sum()) ** 2}[budget]
        monkeypatch.setattr(labelling, "CELLS", cells)
        want = np.stack([reference_grid(g, w=7, k=5, d=4, labelling=ranking) for g in ds])
        got, _ = tensorize_dataset(ds, w=7, k=5, labelling=ranking, jobs=jobs)
        assert got.dtype == np.uint16
        assert np.array_equal(got, want)


class TestCacheFormat:
    DIGEST = bytes(range(32))
    SHAPE = (5, 4, 3)

    def _grids(self):
        rng = np.random.default_rng(4)
        graphs = [random_graph(rng, 6, 0.5, num_labels=2) for _ in range(5)]
        return np.stack([
            graph_to_tensor(g, w=4, k=3, d=2, labelling="canonical") for g in graphs
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
        path = str(tmp_path / "X_canonical_w4_k3.gct")
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
        self._write(path, grids=self._grids(), version=VERSION)
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
        self._write(path, grids=grids, version=VERSION, digest=np.frombuffer(self.DIGEST, np.uint8))
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
        assert members["version"].shape == () and int(members["version"]) == 4
        assert members["digest"].dtype == np.uint8
        assert members["digest"].tobytes() == self.DIGEST
