import dataclasses
import glob
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from graphcaps import cli, data, experiment, labelling, selftest, tensorize
from graphcaps.cli import main, read_config_file
from graphcaps.data import read_labels
from graphcaps.experiment import PTC_SUBSETS, ExperimentConfig
from helpers import (count_calls, cycle_graph, healthy_suite, mutate, path_graph,
                     synthetic_dataset_graphs, time_limit, triangle, write_tu_files)


@pytest.fixture()
def syn_root(tu_dir):
    write_tu_files(tu_dir, "SYN", synthetic_dataset_graphs(num_graphs=16, seed=1))
    return tu_dir


@pytest.fixture()
def ptc_root(tu_dir):
    for i, sub in enumerate(("PTC_MM", "PTC_FM", "PTC_MR", "PTC_FR")):
        write_tu_files(tu_dir, sub, synthetic_dataset_graphs(num_graphs=12, seed=i))
    return tu_dir


def run_cli(args, **popen):
    return subprocess.run(
        [sys.executable, "-m", "graphcaps.cli", *args],
        capture_output=True, text=True, timeout=600, **popen,
    )


class TestTensorizeCommand:
    def test_creates_cache_then_noops(self, syn_root, tmp_path, capsys):
        out_root = str(tmp_path / "results")
        args = ["tensorize", "--dataset", "SYN", "--data-root", syn_root,
                "--out-root", out_root, "-w", "6", "-k", "4"]
        assert main(args) == 0
        cache_dir = os.path.join(out_root, "cache")
        files = sorted(os.listdir(cache_dir))
        assert files == ["SYN_bc_w6_k4.gct", "SYN_orders.gct"]
        first = capsys.readouterr().out
        assert "16 tensors" in first
        assert main(args) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_force_rewrites(self, syn_root, tmp_path, capsys):
        out_root = str(tmp_path / "results")
        base = ["tensorize", "--dataset", "SYN", "--data-root", syn_root,
                "--out-root", out_root, "-w", "6", "-k", "4"]
        assert main(base) == 0
        capsys.readouterr()
        with open(os.path.join(out_root, "cache", "SYN_orders.gct"), "wb") as fh:
            fh.write(b"junk")
        assert main(base + ["--force"]) == 0
        out = capsys.readouterr().out
        assert "tensors" in out and "searched 16 graphs" in out and "stale" not in out
        assert main(base + ["--labelling", "canonical"]) == 0
        assert "orders from" in capsys.readouterr().out  # --force rewrote the orders file

    def test_force_searches_each_graph_once_per_command(self, syn_root, tmp_path, capsys,
                                                        monkeypatch):
        out_root = str(tmp_path / "results")
        base = ["tensorize", "--dataset", "SYN", "--data-root", syn_root, "--out-root", out_root,
                "--labelling", "bc,canonical", "-w", "6", "-k", "4", "--jobs", "1"]
        assert main(base) == 0
        capsys.readouterr()
        counts = count_calls(monkeypatch, labelling.canonical_order)
        assert main(base + ["--force"]) == 0
        # both labellings' grids are rebuilt; the canonical one reads the
        # orders the BC one wrote
        assert counts["canonical_order"] == 16
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and all("cold cache" in line for line in out)
        assert "searched 16 graphs" in out[0] and "orders from" in out[1]

    def test_unknown_dataset_fails_cleanly(self, tmp_path):
        result = run_cli(["tensorize", "--dataset", "NOPE",
                          "--data-root", str(tmp_path), "--out-root", str(tmp_path)])
        assert result.returncode == 1
        assert "NOPE" in result.stderr and "not found" in result.stderr

    def test_data_root_falls_back_to_environment(self, syn_root, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHCAPS_DATA", syn_root)
        out_root = str(tmp_path / "results")
        assert main(["tensorize", "--dataset", "SYN", "--out-root", out_root, "-w", "5"]) == 0
        assert sorted(os.listdir(os.path.join(out_root, "cache"))) == [
            "SYN_bc_w5_k10.gct", "SYN_orders.gct"]

    @pytest.mark.parametrize("labellings, files", [
        ("nauty", ["SYN_canonical_w5_k10.gct", "SYN_orders.gct"]),
        ("bc,nauty", ["SYN_bc_w5_k10.gct", "SYN_canonical_w5_k10.gct", "SYN_orders.gct"]),
    ])
    def test_nauty_alias_maps_to_canonical(self, syn_root, tmp_path, labellings, files):
        out_root = str(tmp_path / "results")
        assert main(["tensorize", "--dataset", "SYN", "--data-root", syn_root,
                     "--out-root", out_root, "--labelling", labellings, "-w", "5"]) == 0
        assert sorted(os.listdir(os.path.join(out_root, "cache"))) == files

    def test_flags_are_the_extraction_settings(self):
        # the tensors depend on no training setting, the seed included
        dests = vars(cli.build_parser().parse_args(["tensorize", "--dataset", "X"]))
        assert set(dests) == {"dataset", "labelling", "w", "k", "data_root", "out_root",
                              "cache_dir", "jobs", "force", "config", "command", "func"}

    def test_seed_rejected(self, syn_root, tmp_path, capsys):
        args = ["tensorize", "--dataset", "SYN", "--data-root", syn_root,
                "--out-root", str(tmp_path / "results")]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        cfg = tmp_path / "tensorize.cfg"
        cfg.write_text("seed = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), *args])
        assert exc.value.code == 2
        assert "config key 'seed' is not an option of 'tensorize'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "results")

    @pytest.mark.parametrize("command, jobs", [("tensorize", "0"), ("run", "0"),
                                               ("tensorize", "-3")])
    def test_jobs_below_one_rejected(self, syn_root, tmp_path, capsys, command, jobs):
        assert main([command, "--dataset", "SYN", "--data-root", syn_root,
                     "--out-root", str(tmp_path / "results"), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not os.path.exists(tmp_path / "results")

    def test_search_over_budget_names_the_graph(self, tu_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(labelling, "MAX_SEARCH_NODES", 1)
        graphs = [path_graph(3, labels=(0, 1, 2)), triangle(), cycle_graph(4), triangle()]
        write_tu_files(tu_dir, "CAP", graphs)
        assert main(["tensorize", "--dataset", "CAP", "--data-root", tu_dir,
                     "--out-root", str(tmp_path / "results"), "-w", "3", "--jobs", "2"]) == 1
        assert "error: graph 2: canonical search" in capsys.readouterr().err


class TestRunCommand:
    def test_run_produces_report_and_manifest(self, syn_root, tmp_path, capsys):
        out_root = str(tmp_path / "results")
        rc = main(["run", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", out_root, "--model", "capsules", "--preset", "small",
                   "--folds", "3", "--epochs", "2", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BC + Capsules on SYN" in out
        run_dirs = [d for d in os.listdir(out_root) if d.startswith("SYN_bc_capsules")]
        assert len(run_dirs) == 1
        run_dir = os.path.join(out_root, run_dirs[0])
        report = open(os.path.join(run_dir, "report.csv")).read()
        assert "±" in report
        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        assert manifest["resolved_config"]["dataset"] == "SYN"
        assert "SYN_A.txt" in manifest["dataset_checksums"]["SYN"]
        result = json.load(open(os.path.join(run_dir, "result.json")))
        assert manifest["version"] == result["version"]
        assert manifest["version"].startswith("graphcaps ")
        # one run needs no combined report
        assert not glob.glob(os.path.join(out_root, "report*"))

    def test_cnn_model(self, syn_root, tmp_path, capsys):
        rc = main(["run", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", str(tmp_path / "results"), "--model", "cnn",
                   "--folds", "3", "--epochs", "2"])
        assert rc == 0
        assert "BC + CNN" in capsys.readouterr().out

    def test_every_flag_sets_a_config_field(self):
        # no flag that sets no field, and no field that no flag reaches
        dests = vars(cli.build_parser().parse_args(["run", "--dataset", "X"]))
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {"base_lr" if d == "lr" else d for d in dests} == (
            fields | {"repeats", "config", "command", "func"})

    def test_unknown_flag_exits_2(self):
        result = run_cli(["run", "--dataset", "X", "--frobnicate"])
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    @pytest.mark.parametrize("command, dataset", [("run", "NOPE"), ("run", "PTC"),
                                                  ("grid", "PTC")])
    def test_input_that_fails_to_load_leaves_no_output(self, tu_dir, tmp_path, command,
                                                        dataset):
        # PTC_FR is missing, so the last PTC sub-dataset fails to load
        for i, sub in enumerate(("PTC_MM", "PTC_FM", "PTC_MR")):
            write_tu_files(tu_dir, sub, synthetic_dataset_graphs(num_graphs=12, seed=i))
        out_root = tmp_path / "results"
        out_root.mkdir()
        argv = [command, "--dataset", dataset, "--data-root", tu_dir, "--out-root",
                str(out_root), "--cache-dir", str(tmp_path / "cache"), "--folds", "3",
                "--epochs", "1"]
        if command == "grid":
            argv += ["--epochs-grid", "1", "--lr-grid", "0.001", "--decay-grid", "0.0"]
        assert main(argv) == 1
        assert os.listdir(out_root) == []

    # SYN has 16 graphs of default width 10 and each PTC sub-dataset 12 graphs; a later
    # --dataset or --folds overrides the one the test passes first
    @pytest.mark.parametrize("argv, error", [
        pytest.param(["run", "--batch-size", "0"], "batch_size", id="--batch-size-batch_size"),
        pytest.param(["run", "--routing-iters", "0"], "routing_iters",
                     id="--routing-iters-routing_iters"),
        pytest.param(["run", "--folds", "50"], "cannot make 50 folds from 16 samples",
                     id="run-folds"),
        pytest.param(["run", "-k", "2"], "conv layer needs input >= 3x3, got 10x2", id="run-k"),
        pytest.param(["run", "-w", "2"], "conv layer needs input >= 3x3, got 2x10", id="run-w"),
        pytest.param(["run", "--dataset", "PTC", "--folds", "13"],
                     "cannot make 13 folds from 12 samples", id="run-PTC-folds"),
        pytest.param(["grid", "--dataset", "PTC", "-k", "2", "--epochs-grid", "1", "--lr-grid",
                      "0.001", "--decay-grid", "0.0"], "conv layer needs input", id="grid-PTC-k"),
        pytest.param(["embed", "--source", "caps", "--perplexity", "100"],
                     "perplexity must lie in (1, 16)", id="embed-perplexity"),
        pytest.param(["embed", "--source", "raw", "--iters", "0"], "iters must be >= 1, got 0",
                     id="embed-iters"),
        pytest.param(["run", "--lr", "nan"], "base_lr must be finite and > 0, got nan",
                     id="lr-nan"),
        pytest.param(["run", "--lr", "-1"], "base_lr must be finite and > 0, got -1.0",
                     id="lr-negative"),
        pytest.param(["run", "--lr-decay", "nan"], "lr_decay must be finite and >= 0, got nan",
                     id="lr-decay-nan"),
        pytest.param(["run", "--lr-decay", "-0.5"], "lr_decay must be finite and >= 0, got -0.5",
                     id="lr-decay-negative"),
        pytest.param(["run", "--lam", "inf"], "lam must be finite and >= 0, got inf", id="lam-inf"),
        pytest.param(["grid", "--alpha", "-1", "--epochs-grid", "1", "--lr-grid", "0.001",
                      "--decay-grid", "0.0"], "alpha must be finite and >= 0, got -1.0",
                     id="grid-alpha-negative"),
    ])
    def test_bad_training_setting_fails_before_output(self, syn_root, ptc_root, tmp_path, capsys,
                                                      argv, error):
        out_root = tmp_path / "results"
        command, *flags = argv
        cv = ["--folds", "3"] if command != "embed" else []
        assert main([command, "--dataset", "SYN", "--data-root", syn_root, "--out-root",
                     str(out_root), "--cache-dir", str(tmp_path / "cache"), "--epochs", "1",
                     *cv, *flags]) == 1
        assert error in capsys.readouterr().err
        assert not out_root.exists()

    def test_repeats_prints_mean(self, syn_root, tmp_path, capsys):
        rc = main(["run", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", str(tmp_path / "results"), "--folds", "3",
                   "--epochs", "1", "--repeats", "2"])
        assert rc == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if "mean over 2 repetitions" in line]
        assert " ± " in line and line.endswith(" (n=2)")

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_rejected(self, syn_root, tmp_path, capsys, repeats):
        assert main(["run", "--dataset", "SYN", "--data-root", syn_root,
                     "--out-root", str(tmp_path / "results"), "--repeats", repeats]) == 1
        assert capsys.readouterr().err == f"error: repeats must be >= 1, got {repeats}\n"
        assert not os.path.exists(tmp_path / "results")

    def test_manifest_holds_no_outer_argv(self, syn_root, tmp_path, monkeypatch):
        # main(argv) also runs inside other programs, such as the benchmark
        # harness and the tests; their own argv says nothing about the run
        monkeypatch.setattr(sys, "argv", ["outer_script.py", "--some-outer-flag"])
        out_root = tmp_path / "results"
        assert main(["run", "--dataset", "SYN", "--data-root", syn_root,
                     "--out-root", str(out_root), "--folds", "3", "--epochs", "1",
                     "--repeats", "2"]) == 0
        manifests = glob.glob(str(out_root / "SYN_*" / "manifest.json"))
        assert len(manifests) == 2
        for path in manifests:
            text = open(path).read()
            assert "outer_script" not in text and "--some-outer-flag" not in text
            assert json.loads(text)["resolved_config"]["data_root"] == syn_root


class TestDeadWorkers:
    """A worker that dies fails the command within seconds, naming what it
    held, and leaves no child process behind."""

    @staticmethod
    def kept(out_root) -> set:
        """The folds in the run's folds_partial.json."""
        for path in glob.glob(os.path.join(out_root, "SYN_bc_capsules*", "folds_partial.json")):
            with open(path) as fh:
                return {row["fold"] for row in json.load(fh)}
        return set()

    def test_dead_fold_worker_fails_the_run(self, syn_root, tmp_path, monkeypatch, capsys):
        out_root = str(tmp_path / "results")
        run_fold = experiment._run_fold

        def dying(cfg, x, y, num_classes, task):
            if task[0] == 3:
                # die once folds 0-2 are kept: fold 3 can be sent before they
                # all come back
                deadline = time.monotonic() + 20
                while self.kept(out_root) != {0, 1, 2} and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(9)
            return run_fold(cfg, x, y, num_classes, task)

        monkeypatch.setattr(experiment, "_run_fold", dying)
        with time_limit(20):
            rc = main(["run", "--dataset", "SYN", "--data-root", syn_root, "--out-root", out_root,
                       "--preset", "small", "--folds", "4", "--epochs", "1", "--jobs", "2"])
        assert rc == 1
        assert capsys.readouterr().err == "error: fold 3: the worker process exited with code 9\n"
        assert multiprocessing.active_children() == []
        assert self.kept(out_root) == {0, 1, 2}

    def test_dead_fold_worker_keeps_every_fold_that_finished(self, syn_root, tmp_path,
                                                             monkeypatch, capsys):
        # fold 1 holds one worker; the other runs folds 0 and 2, then dies on
        # fold 3 while fold 1 is still running
        out_root = str(tmp_path / "results")
        run_fold = experiment._run_fold

        def dying(cfg, x, y, num_classes, task):
            if task[0] == 1:
                time.sleep(60)  # killed when the failed run reaps its workers
            if task[0] == 3:
                os._exit(9)
            return run_fold(cfg, x, y, num_classes, task)

        monkeypatch.setattr(experiment, "_run_fold", dying)
        with time_limit(20):
            rc = main(["run", "--dataset", "SYN", "--data-root", syn_root, "--out-root", out_root,
                       "--preset", "small", "--folds", "4", "--epochs", "1", "--jobs", "2"])
        assert rc == 1
        assert capsys.readouterr().err == "error: fold 3: the worker process exited with code 9\n"
        assert multiprocessing.active_children() == []
        assert self.kept(out_root) == {0, 2}

    def test_dead_chunk_worker_fails_the_extraction(self, syn_root, tmp_path, monkeypatch,
                                                    capsys):
        sizes = read_labels(syn_root, "SYN").sizes
        *_, last = labelling.lane_groups(sizes ** 2, 2)
        assert last.start > 0
        chunk_grids = tensorize._chunk_grids

        def dying(extract, graphs, orders, group):
            if group == last:
                os._exit(7)
            return chunk_grids(extract, graphs, orders, group)

        monkeypatch.setattr(tensorize, "_chunk_grids", dying)
        out_root = str(tmp_path / "results")
        with time_limit(20):
            rc = main(["tensorize", "--dataset", "SYN", "--data-root", syn_root,
                       "--out-root", out_root, "-w", "6", "-k", "4", "--jobs", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: graphs {last.start}-{len(sizes) - 1}: "
                                           "the worker process exited with code 7\n")
        assert multiprocessing.active_children() == []
        assert not glob.glob(os.path.join(out_root, "cache", "*.gct"))


class TestLists:
    """One command runs the product of its comma lists, each run as its
    single-value command would, from one load per labelling."""

    @pytest.fixture()
    def mutag_root(self, tu_dir):
        write_tu_files(tu_dir, "MUTAG", synthetic_dataset_graphs(num_graphs=16, seed=3))
        return tu_dir

    @staticmethod
    def run(root, out_root, *flags):
        assert main(["run", "--dataset", "MUTAG", "--data-root", root, "--out-root",
                     str(out_root), "--preset", "small", "--folds", "2", "--epochs", "1",
                     "--jobs", "1", *flags]) == 0

    def test_ablation_matches_single_value_runs(self, mutag_root, tmp_path, monkeypatch):
        ablation = tmp_path / "ablation"
        counts = count_calls(monkeypatch, labelling.canonical_order)
        self.run(mutag_root, ablation, "--labelling", "bc,canonical", "--model", "capsules,cnn")
        # both labellings search each graph once, through one orders file
        assert counts["canonical_order"] == 16
        cached = sorted(os.listdir(ablation / "cache"))
        assert [name.split("_")[1] for name in cached] == ["bc", "canonical", "orders.gct"]
        assert len(glob.glob(str(ablation / "MUTAG_*" / "folds.csv"))) == 4
        for lab in ("bc", "canonical"):
            for model in ("capsules", "cnn"):
                alone = tmp_path / f"{lab}_{model}"
                self.run(mutag_root, alone, "--labelling", lab, "--model", model)
                (want,) = glob.glob(str(alone / "MUTAG_*" / "folds.csv"))
                (got,) = glob.glob(str(ablation / f"MUTAG_{lab}_{model}_*" / "folds.csv"))
                assert open(got, "rb").read() == open(want, "rb").read()

    def test_report_holds_the_runs_of_its_command(self, mutag_root, tmp_path, capsys):
        out_root = tmp_path / "ablation"
        ablation = ["--labelling", "bc,canonical", "--model", "capsules,cnn"]
        reports = []
        for flags in (["--seed", "1"], ["--seed", "5", "--repeats", "2"]):
            self.run(mutag_root, out_root, *ablation, *flags)
            (line,) = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("[run] report over")]
            reports.append(os.path.dirname(line.rpartition(" -> ")[2]))
        assert len(glob.glob(str(out_root / "MUTAG_*" / "result.json"))) == 12
        # each command has a report of its own, named after its runs
        assert sorted(glob.glob(str(out_root / "report_*"))) == sorted(reports)
        assert all(re.fullmatch(r"report_[0-9a-f]{10}", os.path.basename(r)) for r in reports)
        # report.txt has one timing line per run of its command, and the
        # second report.csv one row per variant: the mean of its seed-5 and
        # seed-6 runs
        for report, runs in zip(reports, (4, 8)):
            timing = [line for line in open(os.path.join(report, "report.txt"))
                      if "s/fold" in line]
            assert len(timing) == runs
        assert "(n=" not in open(os.path.join(reports[0], "report.csv")).read()
        repeats = {}
        for seed in (5, 6):
            for path in glob.glob(str(out_root / f"MUTAG_*_s{seed}_*" / "result.json")):
                result = json.load(open(path))
                repeats.setdefault(result["variant"], []).append(result["mean_accuracy"])
        assert sorted(len(means) for means in repeats.values()) == [2, 2, 2, 2]
        rows = open(os.path.join(reports[1], "report.csv")).read().splitlines()[1:]
        assert sorted(rows) == sorted(
            f"{variant},{100 * np.mean(means):.1f} ± {100 * np.std(means):.2f} (n=2)"
            for variant, means in repeats.items())

    @pytest.mark.parametrize("argv, error", [
        (["run", "--labelling", "bc,bogus"], "argument --labelling: invalid choice: 'bogus'"),
        (["run", "--labelling", "canonical,nauty"],
         "argument --labelling: 'canonical,nauty' names a value twice"),
        (["run", "--model", "capsules,"], "argument --model: invalid choice: ''"),
        (["tensorize", "--labelling", "bc,bc"],
         "argument --labelling: 'bc,bc' names a value twice"),
        (["embed", "--source", "raw,bogus"], "argument --source: invalid choice: 'bogus'"),
        (["grid", "--labelling", "bc,canonical"],
         "argument --labelling: invalid choice: 'bc,canonical'"),
        (["grid", "--model", "capsules,cnn"], "argument --model: invalid choice: 'capsules,cnn'"),
    ])
    def test_bad_list_exits_2_naming_the_flag(self, syn_root, tmp_path, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--dataset", "SYN", "--data-root", syn_root,
                  "--out-root", str(tmp_path / "results")])
        assert exc.value.code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_embed_sources_match_single_source_calls(self, syn_root, tmp_path, monkeypatch):
        def embed(out_root, sources):
            assert main(["embed", "--dataset", "SYN", "--data-root", syn_root, "--out-root",
                         str(out_root), "--source", sources, "--epochs", "1",
                         "--perplexity", "4", "--iters", "50", "--jobs", "1"]) == 0

        counts = count_calls(monkeypatch, experiment.dataset_tensors)
        embed(tmp_path / "all", "raw,cnn,caps")
        assert counts["dataset_tensors"] == 1
        for source in ("raw", "cnn", "caps"):
            embed(tmp_path / source, source)
            for name in ("embeddings.csv", "distances.csv"):
                (want,) = glob.glob(str(tmp_path / source / f"embed_*_{source}" / name))
                (got,) = glob.glob(str(tmp_path / "all" / f"embed_*_{source}" / name))
                assert open(got, "rb").read() == open(want, "rb").read()


class TestOneLoadPerCommand:
    # SYN and PTC's sub-datasets are each read from their TU files once per
    # command, however many repeats, sub-datasets or grid cells use them
    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "--repeats", "3"],
        ["run", "--labelling", "bc,canonical", "--model", "capsules,cnn"],
        ["run", "--dataset", "PTC"],
        ["grid", "--epochs-grid", "1,2", "--lr-grid", "0.001,0.002", "--decay-grid", "0.0"],
        ["grid", "--dataset", "PTC", "--epochs-grid", "1,2", "--lr-grid", "0.001",
         "--decay-grid", "0.0"],
    ], ids=["run", "run-repeats", "run-labellings", "run-PTC", "grid", "grid-PTC"])
    def test_each_dataset_loads_once(self, syn_root, ptc_root, tmp_path, monkeypatch, argv):
        loaded, load = [], experiment.load_tu_dataset
        monkeypatch.setattr(experiment, "load_tu_dataset", lambda root, name, labels: (
            loaded.append(name) or load(root, name, labels)))
        command, *flags = argv
        assert main([command, "--dataset", "SYN", "--data-root", syn_root, "--out-root",
                     str(tmp_path / "results"), "--folds", "2", "--epochs", "1", "--jobs", "1",
                     *flags]) == 0
        # a cold extraction of each labelling parses the edges once
        names = list(PTC_SUBSETS) if "PTC" in flags else ["SYN"]
        assert sorted(loaded) == sorted(names * (2 if "bc,canonical" in flags else 1))

    def test_cold_tensorize_parses_each_file_once(self, syn_root, tmp_path, monkeypatch):
        # the label files a miss reads first are the ones its graphs are built on
        parsed, read_rows = [], data._read_rows
        monkeypatch.setattr(data, "_read_rows", lambda path, width: (
            parsed.append(os.path.basename(path)) or read_rows(path, width)))
        assert main(["tensorize", "--dataset", "SYN", "--data-root", syn_root, "--out-root",
                     str(tmp_path / "results"), "-w", "6", "-k", "4"]) == 0
        assert sorted(parsed) == [f"SYN_{suffix}.txt" for suffix in
                                  ("A", "graph_indicator", "graph_labels", "node_labels")]


class TestGridCommand:
    def _grid(self, root, out_root, dataset, epochs_grid):
        return main(["grid", "--dataset", dataset, "--data-root", root, "--out-root", out_root,
                     "--folds", "3", "--epochs-grid", epochs_grid, "--lr-grid", "0.001",
                     "--decay-grid", "0.0"])

    def test_ptc_grid_runs_each_subdataset(self, ptc_root, tmp_path):
        out_root = str(tmp_path / "results")
        assert self._grid(ptc_root, out_root, "PTC", "1") == 0
        (grid,) = [d for d in os.listdir(out_root) if d.startswith("grid_PTC_")]
        rows = open(os.path.join(out_root, grid, "grid.csv")).read().splitlines()
        assert len(rows) == 2
        (cell,) = [d for d in os.listdir(os.path.join(out_root, grid)) if d.startswith("PTC_")]
        for sub in ("PTC_MM", "PTC_FM", "PTC_MR", "PTC_FR"):
            assert os.path.isfile(os.path.join(out_root, grid, cell, sub, "folds.csv"))
        manifest = json.load(open(os.path.join(out_root, grid, "manifest.json")))
        assert "PTC_MM_A.txt" in manifest["dataset_checksums"]["PTC_MM"]
        best = json.load(open(os.path.join(out_root, grid, "best.json")))
        assert best["config"]["epochs"] == 1 and best["config"]["dataset"] == "PTC"

    def test_grids_differing_in_axes_keep_their_own_directories(self, syn_root, tmp_path):
        out_root = str(tmp_path / "results")
        assert self._grid(syn_root, out_root, "SYN", "1") == 0
        assert self._grid(syn_root, out_root, "SYN", "2") == 0
        grids = sorted(d for d in os.listdir(out_root) if d.startswith("grid_"))
        assert len(grids) == 2
        epochs = set()
        for grid in grids:
            rows = open(os.path.join(out_root, grid, "grid.csv")).read().splitlines()
            assert len(rows) == 2
            epochs.add(rows[1].split(",")[0])
        assert epochs == {"1", "2"}

    def test_base_schedule_does_not_split_a_grid(self, syn_root, tmp_path):
        out_root = str(tmp_path / "results")
        for epochs in ("3", "4"):
            assert main(["grid", "--dataset", "SYN", "--data-root", syn_root,
                         "--out-root", out_root, "--folds", "3", "--epochs", epochs,
                         "--epochs-grid", "1", "--lr-grid", "0.001",
                         "--decay-grid", "0.0"]) == 0
        (grid,) = [d for d in os.listdir(out_root) if d.startswith("grid_")]
        cells = [d for d in os.listdir(os.path.join(out_root, grid)) if d.startswith("SYN_")]
        assert len(cells) == 1 and "_e1_" in cells[0]


class TestConfigFile:
    def test_parse_and_coerce(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 7\nlr-decay = 0.005  # comment\nforce = true\n")
        values = read_config_file(str(cfg))
        assert values == {"epochs": "7", "lr_decay": "0.005", "force": "true"}

    def test_config_provides_defaults_cli_overrides(self, syn_root, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root = {syn_root}\nfolds = 3\nepochs = 1\nlr = 0.005\n")
        out_root = str(tmp_path / "results")
        rc = main(["--config", str(cfg), "run", "--dataset", "SYN",
                   "--out-root", out_root, "--epochs", "2"])
        assert rc == 0
        run_dirs = os.listdir(out_root)
        run_dir = next(d for d in run_dirs if d.startswith("SYN"))
        manifest = json.load(open(os.path.join(out_root, run_dir, "manifest.json")))
        config = manifest["resolved_config"]
        assert config["folds"] == 3   # from file
        assert config["epochs"] == 2  # CLI wins
        assert config["base_lr"] == 0.005  # --lr is the one flag named unlike its field

    def test_later_flag_overrides_a_config_list(self, syn_root, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root = {syn_root}\nlabelling = bc,canonical\n"
                       "model = capsules,cnn\nfolds = 2\nepochs = 1\n")
        out_root = tmp_path / "results"
        assert main(["--config", str(cfg), "run", "--dataset", "SYN", "--out-root",
                     str(out_root), "--labelling", "bc"]) == 0
        runs = sorted(d.split("_")[1:3] for d in os.listdir(out_root) if d.startswith("SYN_"))
        assert runs == [["bc", "capsules"], ["bc", "cnn"]]

    @pytest.mark.parametrize("value, rebuilt", [("true", True), ("false", False)])
    def test_true_gives_a_switch(self, syn_root, tmp_path, capsys, value, rebuilt):
        cfg = tmp_path / "tensorize.cfg"
        cfg.write_text(f"data_root = {syn_root}\nforce = {value}\n")
        args = ["--config", str(cfg), "tensorize", "--dataset", "SYN",
                "--out-root", str(tmp_path / "results"), "-w", "5"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert ("cold cache" in capsys.readouterr().out) is rebuilt

    def test_key_of_no_option_rejected(self, syn_root, tmp_path, capsys):
        # a key that names no flag is reported as a config key, not as a stray flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root = {syn_root}\nnaive_ties = true\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "run", "--dataset", "SYN",
                  "--out-root", str(tmp_path / "results")])
        assert exc.value.code == 2
        assert "config key 'naive_ties' is not an option of 'run'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "results")

    def test_misspelled_key_rejected(self, syn_root, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root = {syn_root}\nfolds = 3\nepoch = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "run", "--dataset", "SYN",
                  "--out-root", str(tmp_path / "results")])
        assert exc.value.code == 2
        assert "'epoch'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "results")

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        rc = main(["--config", str(cfg), "selftest"])
        assert rc == 1


class TestEmbedAndReport:
    def test_embed_raw(self, syn_root, tmp_path, capsys):
        out_root = str(tmp_path / "results")
        rc = main(["embed", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", out_root, "--source", "raw",
                   "--perplexity", "4", "--iters", "60", "--seed", "2"])
        assert rc == 0
        (name,) = [d for d in os.listdir(out_root) if d.startswith("embed_")]
        assert name.startswith("embed_SYN_bc_capsules_small_") and name.endswith("_raw")
        out_dir = os.path.join(out_root, name)
        manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
        assert manifest["resolved_config"]["source"] == "raw"
        assert os.path.isfile(os.path.join(out_dir, "embeddings.csv"))
        assert os.path.isfile(os.path.join(out_dir, "distances.csv"))
        assert "KL" in capsys.readouterr().out

    @pytest.mark.parametrize("iters", [100, 150, 200, 250])
    def test_embed_kl_falls_at_small_iters(self, syn_root, tmp_path, capsys, iters):
        # the early exaggeration ends halfway, so the layout fits the true P
        # before the final KL is taken
        rc = main(["embed", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", str(tmp_path / "results"), "--source", "raw",
                   "--perplexity", "4", "--iters", str(iters), "--seed", "2"])
        assert rc == 0
        line = [ln for ln in capsys.readouterr().out.splitlines() if " KL " in ln][-1]
        kl_initial, kl_final = map(float, line.split("KL ")[1].split(";")[0].split(" -> "))
        assert kl_final < kl_initial

    def test_embed_caps_trains_model(self, syn_root, tmp_path, capsys):
        out_root = str(tmp_path / "results")
        rc = main(["embed", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", out_root, "--source", "caps", "--epochs", "1",
                   "--perplexity", "4", "--iters", "50"])
        assert rc == 0
        assert "training capsules" in capsys.readouterr().out

    def test_embed_ptc_names_the_subdatasets(self, ptc_root, tmp_path, capsys):
        out_root = tmp_path / "results"
        rc = main(["embed", "--dataset", "PTC", "--data-root", ptc_root,
                   "--out-root", str(out_root), "--source", "raw"])
        assert rc == 1
        assert "PTC_MM, PTC_FM, PTC_MR, PTC_FR" in capsys.readouterr().err
        assert not out_root.exists()

    @pytest.mark.parametrize("flag", [["--model", "cnn"], ["--folds", "3"]])
    def test_embed_rejects_cv_flags(self, flag, capsys):
        # the source picks the model, and embed trains on the full dataset
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--dataset", "SYN", "--source", "caps", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_combines_runs(self, syn_root, tmp_path, capsys):
        out_root = str(tmp_path / "results")
        for model in ("capsules", "cnn"):
            main(["run", "--dataset", "SYN", "--data-root", syn_root,
                  "--out-root", out_root, "--model", model, "--folds", "3",
                  "--epochs", "1"])
        run_dirs = [os.path.join(out_root, d) for d in os.listdir(out_root)
                    if d.startswith("SYN_")]
        rc = main(["report", *run_dirs, "-o", str(tmp_path / "combined")])
        assert rc == 0
        text = open(str(tmp_path / "combined" / "report.txt")).read()
        assert "BC + Capsules" in text and "BC + CNN" in text

    def test_report_missing_result_errors(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path), "-o", str(tmp_path / "out")])
        assert rc == 1


class TestSelftestCommand:
    def test_passes_on_healthy_build(self, monkeypatch, capsys):
        # the suites' healthy runs are shared with acceptance criteria 4-8
        monkeypatch.setattr(selftest, "run_suite", healthy_suite)
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "all suites passed" in out

    def test_detects_broken_kernel(self, monkeypatch, capsys):
        assert healthy_suite("betweenness-oracle")[0] == 0
        mutate(monkeypatch, labelling, "_brandes", "(1.0 + delta[w])", "delta[w]")
        assert main(["selftest"]) == 1
        assert "[selftest] betweenness-oracle   FAIL" in capsys.readouterr().out
