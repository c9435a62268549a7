import json
import os
import subprocess
import sys

import pytest

from graphcaps.cli import main, read_config_file
from helpers import synthetic_dataset_graphs, write_tu_files


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
                "--out-root", out_root, "-w", "6", "-k", "4", "--seed", "3"]
        assert main(args) == 0
        cache_dir = os.path.join(out_root, "cache")
        files = os.listdir(cache_dir)
        assert files == ["SYN_bc_w6_k4_seed3.gct"]
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
        assert main(base + ["--force"]) == 0
        assert "tensors" in capsys.readouterr().out

    def test_unknown_dataset_fails_cleanly(self, tmp_path):
        result = run_cli(["tensorize", "--dataset", "NOPE",
                          "--data-root", str(tmp_path), "--out-root", str(tmp_path)])
        assert result.returncode == 1
        assert "NOPE" in result.stderr and "not found" in result.stderr

    def test_data_root_falls_back_to_environment(self, syn_root, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHCAPS_DATA", syn_root)
        out_root = str(tmp_path / "results")
        assert main(["tensorize", "--dataset", "SYN", "--out-root", out_root, "-w", "5"]) == 0
        assert os.listdir(os.path.join(out_root, "cache")) == ["SYN_bc_w5_k10_seed1.gct"]

    def test_nauty_alias_maps_to_canonical(self, syn_root, tmp_path):
        out_root = str(tmp_path / "results")
        assert main(["tensorize", "--dataset", "SYN", "--data-root", syn_root,
                     "--out-root", out_root, "--labelling", "nauty", "-w", "5"]) == 0
        files = os.listdir(os.path.join(out_root, "cache"))
        assert files == ["SYN_canonical_w5_k10_seed1.gct"]


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
        assert manifest["version"]

    def test_cnn_model(self, syn_root, tmp_path, capsys):
        rc = main(["run", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", str(tmp_path / "results"), "--model", "cnn",
                   "--folds", "3", "--epochs", "2"])
        assert rc == 0
        assert "BC + CNN" in capsys.readouterr().out

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

    def test_repeats_prints_mean(self, syn_root, tmp_path, capsys):
        rc = main(["run", "--dataset", "SYN", "--data-root", syn_root,
                   "--out-root", str(tmp_path / "results"), "--folds", "3",
                   "--epochs", "1", "--repeats", "2"])
        assert rc == 0
        assert "mean over 2 repetitions" in capsys.readouterr().out


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
        cfg.write_text("epochs = 7\nlr = 0.005  # comment\nnaive-ties = true\n")
        values = read_config_file(str(cfg))
        assert values == {"epochs": "7", "lr": "0.005", "naive_ties": "true"}

    def test_config_provides_defaults_cli_overrides(self, syn_root, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root = {syn_root}\nfolds = 3\nepochs = 1\n"
                       "lr = 0.005\nnaive_ties = true\n")
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
        assert config["naive_ties"] is True

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
    def test_passes_on_healthy_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "all suites passed" in out

    def test_detects_broken_kernel(self):
        env = dict(os.environ, GRAPHCAPS_SELFTEST_BREAK="1")
        result = run_cli(["selftest"], env=env)
        assert result.returncode == 1
        assert "FAIL" in result.stdout
