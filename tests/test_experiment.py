import contextlib
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from graphcaps import experiment, labelling, tensor_cache
from graphcaps.data import dataset_digest, read_labels
from graphcaps.experiment import (
    ExperimentConfig,
    ExperimentResult,
    dataset_tensors,
    emit_report,
    grid_dir,
    grid_search,
    kfold_split,
    load_datasets,
    run_cv,
    run_experiment,
    tensorize_cached,
    variant_name,
)
from graphcaps.models import ConfigError
from graphcaps.nn import TrainingError
from graphcaps.tensor_cache import load_orders, save_orders, save_tensors
from graphcaps.tensorize import tensorize_dataset
from helpers import (count_calls, flip_grid_byte, load, poison_gradient, swap_first_orders,
                     synthetic_dataset_graphs, write_tu_files, write_v2_cache)

QUIET = staticmethod(lambda *a, **k: None)


def small_cfg(tu_dir, tmp_path, **overrides):
    defaults = dict(
        dataset="SYN", labelling="bc", model="capsules", preset="small",
        folds=4, seed=1, epochs=6, data_root=tu_dir,
        out_root=str(tmp_path / "results"), jobs=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_one(cfg, log=QUIET):
    """What ``graphcaps run`` does with a config of one dataset: load it,
    then cross-validate it into the config's run directory."""
    return run_cv(cfg, cfg.dataset, load_datasets(cfg, log=log)[cfg.dataset], cfg.run_dir(),
                  log=log)


@pytest.fixture()
def syn_data(tu_dir):
    write_tu_files(tu_dir, "SYN", synthetic_dataset_graphs(num_graphs=24, seed=2))
    return tu_dir


class TestKFold:
    def test_mutag_shaped_split_sizes(self):
        # 188 samples, 125/63 class balance, 10 folds -> {19 x 8, 18 x 2}
        strata = np.array([1] * 125 + [0] * 63)
        folds = kfold_split(188, 10, seed=3, strata=strata)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [18, 18] + [19] * 8

    def test_union_disjoint_covering(self):
        strata = np.array([0, 1] * 20)
        folds = kfold_split(40, 7, seed=0, strata=strata)
        joined = np.concatenate(folds)
        assert len(joined) == 40
        assert len(set(joined.tolist())) == 40

    def test_per_class_sizes_differ_by_at_most_one(self):
        strata = np.array([1] * 125 + [0] * 63)
        folds = kfold_split(188, 10, seed=3, strata=strata)
        for cls in (0, 1):
            counts = [int(np.sum(strata[f] == cls)) for f in folds]
            assert max(counts) - min(counts) <= 1
        # the positive-class share per fold stays within one sample of 66.49%
        for f in folds:
            share = np.mean(strata[f])
            assert abs(share * len(f) - 0.6649 * len(f)) <= 1.0

    def test_small_class_warns(self):
        strata = np.array([0] * 30 + [1] * 3)
        with pytest.warns(UserWarning, match="class 1 has 3 samples"):
            kfold_split(33, 5, seed=1, strata=strata)

    def test_more_folds_than_samples_rejected(self):
        with pytest.raises(ValueError, match="cannot make"):
            kfold_split(3, 5, seed=0, strata=np.zeros(3))

    def test_deterministic_given_seed(self):
        strata = np.array([0, 1] * 30)
        a = kfold_split(60, 5, seed=9, strata=strata)
        b = kfold_split(60, 5, seed=9, strata=strata)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)


class TestExperimentConfig:
    @pytest.mark.parametrize("field, value", [("batch_size", 0), ("routing_iters", 0),
                                              ("loss_mode", "hinge"), ("jobs", 0), ("jobs", -3)])
    def test_bad_training_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(dataset="SYN", **{field: value})


class TestRunCV:
    def test_outputs_and_summary(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path)
        res = run_one(cfg)
        assert len(res.fold_accuracies) == 4
        assert all(0.0 <= a <= 1.0 for a in res.fold_accuracies)
        assert res.mean_accuracy == pytest.approx(np.mean(res.fold_accuracies))
        assert res.std_accuracy == pytest.approx(np.std(res.fold_accuracies))
        run_dir = os.path.join(cfg.out_root, cfg.run_id())
        for name in ("manifest.json", "folds.csv", "result.json", "report.csv", "report.txt"):
            assert os.path.isfile(os.path.join(run_dir, name))
        assert os.path.isfile(os.path.join(run_dir, "traces", "fold_0.csv"))

    def test_folds_csv_deterministic(self, syn_data, tmp_path):
        cfg_a = small_cfg(syn_data, tmp_path, out_root=str(tmp_path / "a"))
        cfg_b = small_cfg(syn_data, tmp_path, out_root=str(tmp_path / "b"))
        run_one(cfg_a)
        run_one(cfg_b)
        a = open(os.path.join(cfg_a.out_root, cfg_a.run_id(), "folds.csv"), "rb").read()
        b = open(os.path.join(cfg_b.out_root, cfg_b.run_id(), "folds.csv"), "rb").read()
        assert a == b

    def test_parallel_folds_match_serial(self, syn_data, tmp_path):
        serial = small_cfg(syn_data, tmp_path, out_root=str(tmp_path / "ser"), jobs=1)
        parallel = small_cfg(syn_data, tmp_path, out_root=str(tmp_path / "par"), jobs=2)
        run_one(serial)
        run_one(parallel)
        a = open(os.path.join(serial.out_root, serial.run_id(), "folds.csv"), "rb").read()
        b = open(os.path.join(parallel.out_root, parallel.run_id(), "folds.csv"), "rb").read()
        assert a == b

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fold_errors_name_the_fold(self, syn_data, tmp_path, monkeypatch, jobs):
        train = experiment.train_model

        def failing(model, x, y, tc):
            if tc.seed == experiment.fold_seed(1, 2):
                raise TrainingError("non-finite loss nan at epoch 0, batch 1")
            return train(model, x, y, tc)

        monkeypatch.setattr(experiment, "train_model", failing)
        cfg = small_cfg(syn_data, tmp_path, epochs=1, jobs=jobs)
        why = "^fold 2: non-finite loss nan at epoch 0, batch 1$"
        with pytest.raises(TrainingError, match=why):
            run_one(cfg)

    def test_nonfinite_gradient_names_the_fold_epoch_and_batch(self, syn_data, tmp_path,
                                                                 monkeypatch):
        train = experiment.train_model

        def poisoned(model, x, y, tc):
            if tc.seed == experiment.fold_seed(1, 2):
                poison_gradient(model, "dec3_w", at_call=1)
            return train(model, x, y, tc)

        monkeypatch.setattr(experiment, "train_model", poisoned)
        cfg = small_cfg(syn_data, tmp_path, epochs=2, jobs=1)  # one batch per epoch
        why = "^fold 2: non-finite gradient for parameter 'dec3_w' at epoch 1, batch 0$"
        with pytest.raises(TrainingError, match=why):
            run_one(cfg)

    def test_fold_task_size_does_not_grow_with_the_dataset(self, tmp_path, monkeypatch):
        # a fold task is pickled to its worker; the dataset reaches the worker
        # by the fork
        class Sent(Exception):
            pass

        def record(fn, items, jobs, *inherited, name):
            sent.append((items, inherited))
            raise Sent

        monkeypatch.setattr(experiment, "fork_map", record)
        sizes = []
        y = np.arange(40) % 2
        for w in (3, 60):
            x = np.zeros((40, w, 10, 5), dtype=np.float32)
            cfg = small_cfg(str(tmp_path), tmp_path, dataset="X", jobs=2)
            sent = []
            with pytest.raises(Sent):
                run_cv(cfg, "X", (x, y, 2), str(tmp_path / f"w{w}"), log=QUIET)
            ((items, inherited),) = sent
            assert inherited[1] is x and inherited[2] is y
            assert [fold for fold, _ in items] == [0, 1, 2, 3]
            sizes.append([len(pickle.dumps(item)) for item in items])
        assert sizes[0] == sizes[1] and max(sizes[1]) < 1000

    @pytest.mark.parametrize("jobs, installed", [(2, True), (2, False), (1, True)])
    def test_parallel_folds_cap_blas_threads(self, syn_data, tmp_path, monkeypatch, jobs,
                                             installed):
        """Parallel folds train under threadpool_limits(limits=1); without
        threadpoolctl run_cv says so once; serial folds do neither."""
        record = str(tmp_path / "limits.txt")
        limit = [None]

        @contextlib.contextmanager
        def fake_limits(limits):
            limit[0] = limits
            try:
                yield
            finally:
                limit[0] = None

        train_model = experiment.train_model

        def recording_train(*args, **kwargs):
            with open(record, "a") as fh:  # written by the fold worker processes
                fh.write(f"{limit[0]}\n")
            return train_model(*args, **kwargs)

        monkeypatch.setattr(experiment, "threadpool_limits", fake_limits if installed else None)
        monkeypatch.setattr(experiment, "train_model", recording_train)
        lines = []
        cfg = small_cfg(syn_data, tmp_path, jobs=jobs, epochs=1)
        run_one(cfg, log=lines.append)
        capped = jobs > 1 and installed
        assert open(record).read().split() == [str(1 if capped else None)] * cfg.folds
        missing = [line for line in lines if "threadpoolctl missing" in line]
        assert len(missing) == (1 if jobs > 1 and not installed else 0)

    def test_geometry_checked_without_building_a_model(self, syn_data, tmp_path, monkeypatch):
        def build_model(*args):
            raise AssertionError("the pre-output check built a model")

        monkeypatch.setattr(ExperimentConfig, "build_model", build_model)
        load_datasets(small_cfg(syn_data, tmp_path), log=QUIET)
        with pytest.raises(ConfigError, match="conv layer needs input >= 3x3"):
            load_datasets(small_cfg(syn_data, tmp_path, k=2), log=QUIET)

    def test_resume_from_partial(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path)
        full = run_one(cfg)
        run_dir = os.path.join(cfg.out_root, cfg.run_id())

        # simulate an interrupted run: keep only folds 0-1 in the partial file
        fresh_out = str(tmp_path / "resume")
        cfg2 = small_cfg(syn_data, tmp_path, out_root=fresh_out)
        seen = []
        real_dir = os.path.join(fresh_out, cfg2.run_id())
        os.makedirs(real_dir, exist_ok=True)
        # run once to get genuine fold rows, then truncate
        run_one(cfg2)
        rows = json.load(open(os.path.join(real_dir, "result.json")))
        partial_src = [
            {"fold": i, "seed": 0, "n_train": 1, "n_test": 1,
             "accuracy": -1.0, "final_loss": 0.0, "seconds": 0.0, "trace": []}
            for i in range(2)
        ]
        with open(os.path.join(real_dir, "folds_partial.json"), "w") as fh:
            json.dump(partial_src, fh)
        resumed = run_one(cfg2, log=seen.append)
        # folds 0-1 were taken from the partial file (sentinel accuracy),
        # folds 2-3 recomputed and identical to the full run
        assert resumed.fold_accuracies[:2] == [-1.0, -1.0]
        assert resumed.fold_accuracies[2:] == full.fold_accuracies[2:]
        assert any("resuming" in str(line) for line in seen)

    def test_interrupted_partial_write_resumes(self, syn_data, tmp_path, monkeypatch):
        class Interrupt(Exception):
            pass

        dump, rows_written = json.dump, []

        def dump_then_stop(obj, fh, *args, **kwargs):
            if isinstance(obj, list):  # the fold rows of folds_partial.json
                rows_written.append(obj)
                if len(rows_written) == 2:
                    text = json.dumps(obj)
                    fh.write(text[: len(text) // 2])
                    raise Interrupt
            dump(obj, fh, *args, **kwargs)

        cfg = small_cfg(syn_data, tmp_path, epochs=1)
        monkeypatch.setattr(json, "dump", dump_then_stop)
        with pytest.raises(Interrupt):
            run_one(cfg)
        monkeypatch.setattr(json, "dump", dump)
        seen = []
        resumed = run_one(cfg, log=seen.append)
        assert "[run] resuming: folds [0] already complete" in seen
        assert len(resumed.fold_accuracies) == cfg.folds

    def test_manifest_and_result_ask_git_once(self, syn_data, tmp_path, monkeypatch):
        run, git_calls = subprocess.run, []

        def counting_run(cmd, *args, **kwargs):
            git_calls.append(cmd)
            return run(cmd, *args, **kwargs)

        monkeypatch.setattr(experiment.subprocess, "run", counting_run)
        experiment.version_stamp.cache_clear()
        cfg = small_cfg(syn_data, tmp_path, epochs=1)
        run_one(cfg)
        manifest = json.load(open(os.path.join(cfg.run_dir(), "manifest.json")))
        result = json.load(open(os.path.join(cfg.run_dir(), "result.json")))
        assert manifest["version"] == result["version"]
        assert [cmd[0] for cmd in git_calls] == ["git"]

    def test_configs_differing_in_lr_keep_their_own_directories(self, syn_data, tmp_path):
        cfg_a = small_cfg(syn_data, tmp_path, base_lr=0.01)
        cfg_b = small_cfg(syn_data, tmp_path, base_lr=0.002)
        assert cfg_a.run_id() != cfg_b.run_id()
        run_one(cfg_a)
        run_one(cfg_b)
        for cfg in (cfg_a, cfg_b):
            fresh = dataclasses.replace(cfg, out_root=str(tmp_path / "fresh"))
            run_one(fresh)
            got = open(os.path.join(cfg.run_dir(), "folds.csv"), "rb").read()
            want = open(os.path.join(fresh.run_dir(), "folds.csv"), "rb").read()
            assert got == want

    def test_edited_dataset_changes_run_id(self, syn_data, tmp_path):
        class Interrupt(Exception):
            pass

        def stop_after_first_fold(line):
            if line.startswith("[fold"):
                raise Interrupt

        cfg = small_cfg(syn_data, tmp_path)
        before = cfg.run_id()
        with pytest.raises(Interrupt):
            run_one(cfg, log=stop_after_first_fold)
        assert os.path.isfile(os.path.join(cfg.run_dir(), "folds_partial.json"))
        path = os.path.join(syn_data, "SYN", "SYN_node_labels.txt")
        lines = open(path).read().splitlines()
        lines[0] = "2" if lines[0] != "2" else "1"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert cfg.run_id() != before
        seen = []
        run_one(cfg, log=seen.append)
        assert not any("resuming" in str(line) for line in seen)

    def test_tensor_cache_version_changes_run_id(self, syn_data, tmp_path, monkeypatch):
        # a run interrupted before an extraction change must not resume
        # folds trained on the old tensors
        cfg = small_cfg(syn_data, tmp_path)
        before = cfg.run_id()
        monkeypatch.setattr(tensor_cache, "VERSION", tensor_cache.VERSION + 1)
        assert cfg.run_id() != before

    def test_run_id_ignores_execution_settings(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path, jobs=1)
        other = small_cfg(syn_data, tmp_path, jobs=2, out_root=str(tmp_path / "elsewhere"),
                          cache_dir=str(tmp_path / "cache"))
        assert cfg.run_id() == other.run_id()
        assert cfg.run_id().startswith("SYN_bc_capsules_small_f4_e6_s1_")
        # sha256, not hash(): a process with another hash seed gets the same id
        code = ("from graphcaps.experiment import ExperimentConfig; "
                f"print(ExperimentConfig(**{cfg.to_dict()!r}).run_id())")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout.strip()
        assert out == cfg.run_id()

    @pytest.mark.parametrize("field, value", [
        ("base_lr", 0.002), ("lr_decay", 0.1), ("batch_size", 8), ("k", 5), ("w", 4),
        ("lam", 0.25), ("alpha", 0.5), ("routing_iters", 2), ("loss_mode", "margin"),
    ])
    def test_run_id_covers_result_fields(self, syn_data, tmp_path, field, value):
        cfg = small_cfg(syn_data, tmp_path)
        assert dataclasses.replace(cfg, **{field: value}).run_id() != cfg.run_id()

    def test_warm_cache_reused(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path)
        lines = []
        dataset_tensors(cfg, log=lines.append)
        assert any("cold cache" in line for line in lines)
        lines.clear()
        dataset_tensors(cfg, log=lines.append)
        assert any("warm cache" in line for line in lines)

    def test_dataset_tensors_are_uint8_one_hot(self, syn_data, tmp_path):
        # a byte a cell, a quarter of float32: the models cast a batch at a time
        cfg = small_cfg(syn_data, tmp_path)
        grids, *_ = tensorize_cached(cfg, log=QUIET)
        x, y, w, channels, labels = dataset_tensors(cfg, log=QUIET)
        assert x.dtype == np.uint8 and x.flags.c_contiguous
        assert channels == labels.num_node_labels + 1
        assert x.nbytes == len(y) * w * cfg.k * channels
        assert (np.count_nonzero(x, axis=-1) == 1).all() and x.max() == 1
        assert np.array_equal(x.argmax(axis=-1), grids)

    def test_warm_hit_reads_only_the_label_files(self, syn_data, tmp_path, monkeypatch):
        cfg = small_cfg(syn_data, tmp_path)
        cold, y_cold, w, _ = tensorize_cached(cfg, log=QUIET)
        loads, load_tu_dataset = [], experiment.load_tu_dataset
        monkeypatch.setattr(experiment, "load_tu_dataset", lambda root, name, labels: (
            loads.append(name) or load_tu_dataset(root, name, labels)))
        log = []
        warm, y, w_warm, labels = tensorize_cached(cfg, log=log.append)
        assert loads == [] and "warm cache" in log[0]
        assert warm.tobytes() == cold.tobytes() and w_warm == w
        ds = load(syn_data, "SYN")
        assert y.dtype == y_cold.dtype == np.int64 and np.array_equal(y, y_cold)
        assert np.array_equal(y, ds.classes)
        assert labels.sizes.tolist() == ds.sizes.tolist()
        assert (labels.num_classes, labels.num_node_labels) == (len(np.unique(ds.classes)),
                                                                 int(ds.labels.max()) + 1)
        # a repeated edge line leaves the graphs as they are, but not the digest
        path = os.path.join(syn_data, "SYN", "SYN_A.txt")
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines + lines[:1]) + "\n")
        log.clear()
        rebuilt, *_ = tensorize_cached(cfg, log=log.append)
        assert loads == ["SYN"] and "stale cache" in log[0]
        assert rebuilt.tobytes() == cold.tobytes()

    def test_seeds_share_one_cache_file_of_the_loaded_graphs(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path, seed=1)
        first, _, w, _ = tensorize_cached(cfg, log=lambda *a: None)
        log = []
        grids, *_ = tensorize_cached(dataclasses.replace(cfg, seed=2), log=log.append)
        assert any("warm cache" in line for line in log)
        assert sorted(os.listdir(cfg.cache_dir)) == [f"SYN_bc_w{w}_k10.gct", "SYN_orders.gct"]
        direct, _ = tensorize_dataset(load(syn_data, "SYN"), w=w, k=10, labelling="bc")
        assert np.array_equal(first, direct) and np.array_equal(grids, direct)

    def test_edited_dataset_invalidates_cache(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path)
        before, *_ = dataset_tensors(cfg, log=lambda *a: None)
        path = os.path.join(syn_data, "SYN", "SYN_node_labels.txt")
        lines = open(path).read().splitlines()
        lines[0] = "2" if lines[0] != "2" else "1"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        log = []
        after, *_ = dataset_tensors(cfg, log=log.append)
        assert any("stale cache" in line for line in log)
        fresh_cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "fresh"))
        fresh, *_ = dataset_tensors(fresh_cfg, log=lambda *a: None)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh)

    @pytest.mark.parametrize(
        "damage", ["truncated", "flipped_grid_byte", "v2_format", "other_version", "other_digest"]
    )
    def test_unusable_cache_file_rebuilt(self, syn_data, tmp_path, damage):
        cfg = small_cfg(syn_data, tmp_path)
        fresh, y, w, ds = tensorize_cached(cfg, log=lambda *a: None)
        path = os.path.join(cfg.cache_dir, f"SYN_bc_w{w}_k10.gct")
        digest = dataset_digest(syn_data, "SYN")
        if damage == "truncated":
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)
        elif damage == "flipped_grid_byte":
            flip_grid_byte(path)
        elif damage == "v2_format":
            write_v2_cache(path, fresh, y, ds.num_node_labels, digest)
        elif damage == "other_version":
            with open(path, "wb") as fh:
                np.savez(fh, grids=fresh, version=2, digest=np.frombuffer(digest, np.uint8))
        else:
            save_tensors(path, fresh, bytes(32))
        log = []
        grids, y_again, *_ = tensorize_cached(cfg, log=log.append)
        assert any("stale cache, rebuilding" in line for line in log)
        assert grids.dtype == fresh.dtype and np.array_equal(grids, fresh)
        assert np.array_equal(y_again, y)
        log.clear()
        tensorize_cached(cfg, log=log.append)
        assert any("warm cache" in line for line in log)

    def test_ptc_averages_subdatasets(self, tu_dir, tmp_path):
        for i, sub in enumerate(("PTC_MM", "PTC_FM", "PTC_MR", "PTC_FR")):
            write_tu_files(tu_dir, sub, synthetic_dataset_graphs(num_graphs=12, seed=i))
        cfg = small_cfg(tu_dir, tmp_path, dataset="PTC", folds=3, epochs=2)
        res = run_experiment(cfg, load_datasets(cfg, log=QUIET), log=QUIET)
        assert res.dataset == "PTC"
        assert len(res.fold_accuracies) == 12  # 4 sub-datasets x 3 folds
        parent = os.path.join(cfg.out_root, cfg.run_id())
        assert os.path.isfile(os.path.join(parent, "manifest.json"))
        assert "PTC" in open(os.path.join(parent, "report.csv")).readline()
        for sub in ("PTC_MM", "PTC_FM", "PTC_MR", "PTC_FR"):
            for name in ("result.json", "manifest.json", "folds.csv"):
                assert os.path.isfile(os.path.join(parent, sub, name))


class TestOrderCache:
    """One canonical search per graph per dataset: the first cold extraction
    writes every graph's order to ``<name>_orders.gct``, and later ones, of
    any labelling, ``w`` or ``k``, read it."""

    RUNS = [("bc", 6, 4), ("canonical", 6, 4), ("bc", 5, 3)]

    def test_each_graph_searched_once_across_extractions(self, syn_data, tmp_path, monkeypatch):
        counts = count_calls(monkeypatch, labelling.canonical_order)
        shared, logs = [], []
        for lab, w, k in self.RUNS:
            cfg = small_cfg(syn_data, tmp_path, labelling=lab, w=w, k=k,
                            cache_dir=str(tmp_path / "shared"))
            shared.append(tensorize_cached(cfg, log=logs.append)[0])
        assert counts["canonical_order"] == 24
        assert "searched 24 graphs" in logs[0]
        assert all("orders from" in line and "SYN_orders.gct" in line for line in logs[1:])
        for i, (lab, w, k) in enumerate(self.RUNS):
            cfg = small_cfg(syn_data, tmp_path, labelling=lab, w=w, k=k,
                            cache_dir=str(tmp_path / f"empty{i}"))
            fresh = tensorize_cached(cfg, log=QUIET)[0]
            assert shared[i].dtype == fresh.dtype and shared[i].tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("damage", [
        "not_an_archive", "swapped_orders", "missing_member", "extra_member",
        "other_version", "other_digest", "other_dtype", "wrong_length", "repeated_node",
    ])
    def test_unusable_orders_file_searched_and_rewritten(self, syn_data, tmp_path, monkeypatch,
                                                         damage):
        cfg = small_cfg(syn_data, tmp_path, w=6, k=4)
        tensorize_cached(cfg, log=QUIET)
        path = os.path.join(cfg.cache_dir, "SYN_orders.gct")
        digest = dataset_digest(syn_data, "SYN")
        sizes = read_labels(syn_data, "SYN").sizes
        good = load_orders(path, digest, sizes)
        digest_member = np.frombuffer(digest, np.uint8)
        if damage == "not_an_archive":
            with open(path, "wb") as fh:
                np.save(fh, good.astype(np.uint16))
        elif damage == "swapped_orders":
            swap_first_orders(path)
        elif damage in ("missing_member", "extra_member", "other_version", "other_dtype"):
            members = dict(orders=good.astype(np.uint16), version=tensor_cache.VERSION,
                           digest=digest_member)
            if damage == "missing_member":
                del members["version"]
            elif damage == "extra_member":
                members["grids"] = np.zeros((24, 6, 4), np.uint16)
            elif damage == "other_version":
                members["version"] = tensor_cache.VERSION - 1
            else:
                members["orders"] = good
            with open(path, "wb") as fh:
                np.savez(fh, **members)
        elif damage == "other_digest":
            save_orders(path, good, bytes(32))
        elif damage == "wrong_length":
            save_orders(path, good[:-1], digest)
        else:
            bad = good.copy()
            bad[1] = bad[0]  # graph 0 lists one node twice and another not at all
            save_orders(path, bad, digest)
        counts = count_calls(monkeypatch, labelling.canonical_order)
        canonical = dataclasses.replace(cfg, labelling="canonical")
        log = []
        grids = tensorize_cached(canonical, log=log.append)[0]
        assert any(line.startswith(f"[tensorize] stale cache, rebuilding: {path}")
                   for line in log)
        assert counts["canonical_order"] == 24 and "searched 24 graphs" in log[-1]
        fresh = tensorize_cached(dataclasses.replace(canonical, cache_dir=str(tmp_path / "empty")),
                                 log=QUIET)[0]
        assert grids.tobytes() == fresh.tobytes()
        assert np.array_equal(load_orders(path, digest, sizes), good)

    def test_force_searches_again(self, syn_data, tmp_path, monkeypatch):
        cfg = small_cfg(syn_data, tmp_path, w=6, k=4)
        tensorize_cached(cfg, log=QUIET)
        path = os.path.join(cfg.cache_dir, "SYN_orders.gct")
        with open(path, "wb") as fh:
            fh.write(b"junk")
        counts = count_calls(monkeypatch, labelling.canonical_order)
        log = []
        tensorize_cached(dataclasses.replace(cfg, labelling="canonical"), force=True,
                         log=log.append)
        assert counts["canonical_order"] == 24
        assert len(log) == 1 and "searched 24 graphs" in log[0]  # the file was not read
        sizes = read_labels(syn_data, "SYN").sizes
        load_orders(path, dataset_digest(syn_data, "SYN"), sizes)


class TestGridSearch:
    def test_single_cell_returns_it(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path, folds=3, epochs=2)
        best_cfg, best_res, cells = grid_search(
            cfg, {"epochs": [2], "base_lr": [1e-3], "lr_decay": [0.0]},
            log=lambda *a: None,
        )
        assert len(cells) == 1
        assert best_cfg.epochs == 2
        assert best_res.mean_accuracy == cells[0][1].mean_accuracy

    def test_product_and_best_selection(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path, folds=3, epochs=2)
        grid = {"epochs": [1, 2], "base_lr": [1e-3, 5e-3], "lr_decay": [0.0]}
        best_cfg, best_res, cells = grid_search(cfg, grid, log=lambda *a: None)
        assert len(cells) == 4
        assert all(best_res.mean_accuracy >= r.mean_accuracy for _, r in cells)
        grid_csv = os.path.join(grid_dir(cfg, grid), "grid.csv")
        assert sum(1 for _ in open(grid_csv)) == 5  # header + 4 cells


class TestReport:
    def test_cross_table(self, tmp_path):
        results = [
            ExperimentResult("MUTAG", variant_name("bc", "capsules"),
                             [0.9, 0.8], 0.85, 0.05, 10.0, 1.0),
            ExperimentResult("MUTAG", variant_name("canonical", "cnn"),
                             [0.8, 0.8], 0.80, 0.0, 2.0, 0.1),
        ]
        out = str(tmp_path / "rep")
        emit_report(results, out)
        csv_text = open(os.path.join(out, "report.csv")).read()
        assert "85.0 ± 5.00" in csv_text
        assert "BC + Capsules" in csv_text
        txt = open(os.path.join(out, "report.txt")).read()
        assert "MUTAG" in txt and "Canonical + CNN" in txt
        assert "population std" in txt

    @staticmethod
    def _run(mean, seed=1, version="graphcaps 0.1.0 (abc1234)", epochs=60):
        # jobs is an execution setting, so repeats may differ in it too
        config = dict(dataset="MUTAG", epochs=epochs, seed=seed, jobs=seed)
        return ExperimentResult("MUTAG", variant_name("bc", "capsules"), [mean], mean, 0.05,
                                1.0, 0.1, config=config, version=version)

    def test_repeats_are_averaged(self, tmp_path):
        out = str(tmp_path / "rep")
        emit_report([self._run(0.85, seed=1), self._run(0.55, seed=2)], out)
        rows = open(os.path.join(out, "report.csv")).read().splitlines()
        assert rows[1] == "BC + Capsules,70.0 ± 15.00 (n=2)"
        txt = open(os.path.join(out, "report.txt")).read()
        assert "70.0 ± 15.00 (n=2)" in txt and "(repeat-level)" in txt
        assert txt.count("s/fold") == 2

    def test_runs_differing_beyond_the_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"runs differ in epochs \(60 vs 61\)"):
            emit_report([self._run(0.85), self._run(0.55, seed=2, epochs=61)],
                        str(tmp_path / "rep"))

    def test_mixed_code_versions_warn(self, tmp_path):
        out = str(tmp_path / "rep")
        with pytest.warns(UserWarning, match="2 code versions"):
            emit_report([self._run(0.85), self._run(0.55, seed=2, version="other")], out)
        assert "2 code versions" in open(os.path.join(out, "report.txt")).read()
