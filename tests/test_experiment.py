import contextlib
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graphcaps import experiment
from graphcaps.data import dataset_digest
from graphcaps.experiment import (
    ExperimentConfig,
    ExperimentResult,
    dataset_tensors,
    emit_report,
    grid_dir,
    grid_search,
    kfold_split,
    run_cv,
    run_experiment,
    tensorize_cached,
    variant_name,
)
from graphcaps.models import ConfigError
from graphcaps.tensor_cache import save_tensors
from helpers import flip_grid_byte, synthetic_dataset_graphs, write_tu_files, write_v2_cache

QUIET = staticmethod(lambda *a, **k: None)


def small_cfg(tu_dir, tmp_path, **overrides):
    defaults = dict(
        dataset="SYN", labelling="bc", model="capsules", preset="small",
        folds=4, seed=1, epochs=6, data_root=tu_dir,
        out_root=str(tmp_path / "results"), jobs=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


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
                                              ("loss_mode", "hinge")])
    def test_bad_training_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(dataset="SYN", **{field: value})


class TestRunCV:
    def test_outputs_and_summary(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path)
        res = run_cv(cfg, log=lambda *a: None)
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
        run_cv(cfg_a, log=lambda *a: None)
        run_cv(cfg_b, log=lambda *a: None)
        a = open(os.path.join(cfg_a.out_root, cfg_a.run_id(), "folds.csv"), "rb").read()
        b = open(os.path.join(cfg_b.out_root, cfg_b.run_id(), "folds.csv"), "rb").read()
        assert a == b

    def test_parallel_folds_match_serial(self, syn_data, tmp_path):
        serial = small_cfg(syn_data, tmp_path, out_root=str(tmp_path / "ser"), jobs=1)
        parallel = small_cfg(syn_data, tmp_path, out_root=str(tmp_path / "par"), jobs=2)
        run_cv(serial, log=lambda *a: None)
        run_cv(parallel, log=lambda *a: None)
        a = open(os.path.join(serial.out_root, serial.run_id(), "folds.csv"), "rb").read()
        b = open(os.path.join(parallel.out_root, parallel.run_id(), "folds.csv"), "rb").read()
        assert a == b

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
        run_cv(cfg, log=lines.append)
        capped = jobs > 1 and installed
        assert open(record).read().split() == [str(1 if capped else None)] * cfg.folds
        missing = [line for line in lines if "threadpoolctl missing" in line]
        assert len(missing) == (1 if jobs > 1 and not installed else 0)

    def test_geometry_checked_without_building_a_model(self, syn_data, tmp_path, monkeypatch):
        def build_model(*args):
            raise AssertionError("the pre-output check built a model")

        monkeypatch.setattr(ExperimentConfig, "build_model", build_model)
        experiment.load_datasets(small_cfg(syn_data, tmp_path), log=QUIET)
        with pytest.raises(ConfigError, match="conv layer needs input >= 3x3"):
            experiment.load_datasets(small_cfg(syn_data, tmp_path, k=2), log=QUIET)

    def test_resume_from_partial(self, syn_data, tmp_path):
        cfg = small_cfg(syn_data, tmp_path)
        full = run_cv(cfg, log=lambda *a: None)
        run_dir = os.path.join(cfg.out_root, cfg.run_id())

        # simulate an interrupted run: keep only folds 0-1 in the partial file
        fresh_out = str(tmp_path / "resume")
        cfg2 = small_cfg(syn_data, tmp_path, out_root=fresh_out)
        seen = []
        real_dir = os.path.join(fresh_out, cfg2.run_id())
        os.makedirs(real_dir, exist_ok=True)
        # run once to get genuine fold rows, then truncate
        run_cv(cfg2, log=lambda *a: None)
        rows = json.load(open(os.path.join(real_dir, "result.json")))
        partial_src = [
            {"fold": i, "seed": 0, "n_train": 1, "n_test": 1,
             "accuracy": -1.0, "final_loss": 0.0, "seconds": 0.0, "trace": []}
            for i in range(2)
        ]
        with open(os.path.join(real_dir, "folds_partial.json"), "w") as fh:
            json.dump(partial_src, fh)
        resumed = run_cv(cfg2, log=seen.append)
        # folds 0-1 were taken from the partial file (sentinel accuracy),
        # folds 2-3 recomputed and identical to the full run
        assert resumed.fold_accuracies[:2] == [-1.0, -1.0]
        assert resumed.fold_accuracies[2:] == full.fold_accuracies[2:]
        assert any("resuming" in str(line) for line in seen)

    def test_configs_differing_in_lr_keep_their_own_directories(self, syn_data, tmp_path):
        cfg_a = small_cfg(syn_data, tmp_path, base_lr=0.01)
        cfg_b = small_cfg(syn_data, tmp_path, base_lr=0.002)
        assert cfg_a.run_id() != cfg_b.run_id()
        run_cv(cfg_a, log=lambda *a: None)
        run_cv(cfg_b, log=lambda *a: None)
        for cfg in (cfg_a, cfg_b):
            fresh = dataclasses.replace(cfg, out_root=str(tmp_path / "fresh"))
            run_cv(fresh, log=lambda *a: None)
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
            run_cv(cfg, log=stop_after_first_fold)
        assert os.path.isfile(os.path.join(cfg.run_dir(), "folds_partial.json"))
        path = os.path.join(syn_data, "SYN", "SYN_node_labels.txt")
        lines = open(path).read().splitlines()
        lines[0] = "2" if lines[0] != "2" else "1"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert cfg.run_id() != before
        seen = []
        run_cv(cfg, log=seen.append)
        assert not any("resuming" in str(line) for line in seen)

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
        fresh, y, _, ds = tensorize_cached(cfg, log=lambda *a: None)
        (name,) = os.listdir(cfg.cache_dir)
        path = os.path.join(cfg.cache_dir, name)
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
        res = run_experiment(cfg, log=lambda *a: None)
        assert res.dataset == "PTC"
        assert len(res.fold_accuracies) == 12  # 4 sub-datasets x 3 folds
        parent = os.path.join(cfg.out_root, cfg.run_id())
        assert os.path.isfile(os.path.join(parent, "manifest.json"))
        for sub in ("PTC_MM", "PTC_FM", "PTC_MR", "PTC_FR"):
            assert os.path.isfile(os.path.join(parent, sub, "result.json"))
            assert os.path.isfile(os.path.join(parent, sub, "manifest.json"))


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
