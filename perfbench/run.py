"""graphcaps benchmark: end-to-end CV and extraction workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cv_mutag_small --seed 1 --seconds 20 --trace 0

The benchmark drives the package in ``src/`` from outside and changes none of
its files.  It generates a seeded synthetic TU dataset (see ``synth.py``), sets
up several times and reports the median set-up time, then repeats whole passes
of the workload until ``--seconds`` is used, at least three times.  Outputs
are checked on every pass; a check, graph or fold that fails counts in
``failed``.  See README.md for the workloads, metrics and checks.

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
alternates untraced and traced passes (see ``spans.py``), at least three, and
reports the per-layer metrics of the traced passes, the tracing overhead
(traced minus untraced pass wall time, leaving out the cold first pass), and
the per-op probe of the training step (``probe.py``) on the training
workloads.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric that applies to the workload with its unit and sample count, and
the machine record.  The full result is also written to
``.perfbench_work/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# BLAS runs single-threaded in every process of the benchmark, fold workers
# included; this must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    """Import graphcaps from this checkout's ``src``, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "graphcaps", "__init__.py")):
        print(f"error: no graphcaps package under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import graphcaps

    if os.path.dirname(os.path.dirname(os.path.abspath(graphcaps.__file__))) != SRC:
        print(f"error: graphcaps imported from {graphcaps.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


_import_package()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

# the layer functions are called through their modules, so that the traced
# wrappers installed on those modules see the benchmark's own calls
from graphcaps import analysis, cli, experiment, models  # noqa: E402
from graphcaps.experiment import ExperimentConfig  # noqa: E402
from graphcaps.labelling import CapacityError  # noqa: E402

import probe  # noqa: E402
import synth  # noqa: E402
from spans import LAYERS, Tracer, summarize  # noqa: E402

T_IMPORTED = time.perf_counter()

K = 10
FOLDS = 10
SETUP_REPS = 3
# Every pass is checked against the first, the median of three passes shrugs
# off one pass slowed by a neighbour on a shared machine, and a traced run
# (untraced, traced, untraced) gets a warm untraced reference.
MIN_PASSES = 3
# name: (dataset shape, width w, preset, epochs, jobs, warm cache)
CV_WORKLOADS = {
    "cv_mutag_small": ("MUTAG", 18, "small", 10, 2, False),
    "cv_mutag_paper": ("MUTAG", 18, "paper", 1, 1, True),
}
# dataset shape, width w, jobs; 2 jobs is this machine's default, and with one
# the pass times follow the speed of a single (shared) core, which varies
EXTRACT = ("NCI1", 35, 2)
TSNE = dict(perplexity=10.0, iters=150, exaggeration_iters=50, momentum_switch=50)
PROBE_REPS = 5

# The gated metrics: those every workload has, none of them ever zero.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "success_ratio": "ratio"}
PROBE_ROWS = [f"{op}_{d}_ms" for op in ("autodiff.conv1", "autodiff.conv2", "autodiff.squash",
                                         "autodiff.caps_predict", "nn.routing", "models.decoder",
                                         "nn.loss") for d in ("fwd", "bwd")]
# per-layer metric -> unit; a layer a workload bypasses reads 0 there
PER_LAYER = {
    **{name: "ms" for name in PROBE_ROWS},
    "nn.adam_step_ms": "ms",
    "autodiff.conv_gflop_per_step": "GFLOP",
    "autodiff.gemm_gflop_per_step": "GFLOP",
    "autodiff.gemm_mb_per_step": "MB",
    "models.loss_batch_s": "s",
    "autodiff.backward_s": "s",
    "nn.adam_step_s": "s",
    "models.predict_s": "s",
    "models.train_steps": "count",
    "labelling.rank_nodes_s": "s",
    "labelling.canonical_order_s": "s",
    "labelling.betweenness_s": "s",
    "labelling.wl_refine_s": "s",
    "labelling.canonical_order_calls": "count",
    "tensorize.graph_ms_p50": "ms",
    "tensorize.graph_ms_p99": "ms",
    "tensorize.out_mb": "MB",
    "tensor_cache.save_s": "s",
    "tensor_cache.load_s": "s",
    "tensor_cache.file_mb": "MB",
    "data.load_s": "s",
    "data.permute_s": "s",
    "experiment.dataset_tensors_s": "s",
    "experiment.fold_s_p50": "s",
    "experiment.fold_s_max": "s",
    "analysis.joint_probabilities_s": "s",
    "analysis.tsne_s": "s",
    "analysis.cluster_distances_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# span totals behind the per-layer metrics: metric -> traced name
SPAN_TOTALS = {
    "models.loss_batch_s": "models.CapsNet.loss_batch",
    "autodiff.backward_s": "autodiff.Tensor.backward",
    "nn.adam_step_s": "nn.adam_step",
    "models.predict_s": "models.CapsNet.predict",
    "labelling.rank_nodes_s": "labelling.rank_nodes",
    "labelling.canonical_order_s": "labelling.canonical_order",
    "labelling.betweenness_s": "labelling.betweenness_centrality",
    "labelling.wl_refine_s": "labelling.wl_refine",
    "tensor_cache.save_s": "tensor_cache.save_tensors",
    "tensor_cache.load_s": "tensor_cache.load_tensors",
    "data.load_s": "data.load_tu_dataset",
    "data.permute_s": "data.permute_dataset",
    "experiment.dataset_tensors_s": "experiment.dataset_tensors",
    "analysis.joint_probabilities_s": "analysis.joint_probabilities",
    "analysis.tsne_s": "analysis.tsne",
    "analysis.cluster_distances_s": "analysis.cluster_distances",
}


class Checks:
    """Counts work attempted (graphs, folds, output checks) and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def work(self, what: str, count: int, ok: bool) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)

    def check(self, what: str, ok: bool) -> None:
        self.work(what, 1, bool(ok))


def _quiet(*_args, **_kwargs):
    pass


def one_hot_ok(x: np.ndarray) -> bool:
    """Every fibre (last axis) holds exactly one 1 and otherwise 0."""
    return bool(np.isin(x, (0.0, 1.0)).all() and (x.sum(axis=-1) == 1.0).all())


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_seconds() -> float:
    """Time a fresh interpreter takes to import this benchmark and the package."""
    code = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import run; print(run.T_IMPORTED - t0)")
    out = subprocess.run([sys.executable, "-c", code, HERE], cwd=ROOT, capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None  # as OpenBLAS itself reports it, when numpy links OpenBLAS
    with open("/proc/self/maps") as fh:
        libs = [line.split()[-1] for line in fh if "openblas" in line]
    if libs:
        lib = ctypes.CDLL(libs[0])
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                threads = getattr(lib, sym)()
                break
    try:
        import threadpoolctl  # noqa: F401

        has_tpc = True
    except ImportError:
        has_tpc = False
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=5,
                             capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "threadpoolctl": has_tpc,
        # experiment._run_fold caps BLAS threads in fold workers only through
        # threadpoolctl; without it the cap is skipped (the environment pin
        # above still holds).
        "fold_blas_cap": "threadpoolctl" if has_tpc else "skipped (threadpoolctl missing)",
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CvWorkload:
    """`graphcaps run` in-process: 10-fold CV of the capsule network with the
    BC labelling on the MUTAG-shaped set."""

    def __init__(self, name: str, seed: int):
        self.shape, self.w, self.preset, self.epochs, self.jobs, self.warm = CV_WORKLOADS[name]
        self.seed = seed
        self.first_folds = None
        self.samples = {"epoch_s": [], "train_graphs_per_s": [], "eval_graphs_per_s": [],
                        "cv_accuracy": [], "cache_load_s": []}

    def config(self, cache_dir: str) -> ExperimentConfig:
        return ExperimentConfig(
            dataset=self.shape, labelling="bc", model="capsules", preset=self.preset,
            w=self.w, k=K, folds=FOLDS, seed=self.seed, epochs=self.epochs, jobs=self.jobs,
            data_root=self.data_root, cache_dir=cache_dir,
        )

    def setup(self, dest: str, checks: Checks) -> None:
        graphs, num_labels = synth.generate(self.shape, self.seed)
        self.n_graphs, self.channels = len(graphs), num_labels + 1
        self.data_root = os.path.join(dest, "data")
        synth.write_tu(self.data_root, self.shape, graphs)
        self.cache_dir = os.path.join(dest, "cache")
        if self.warm:
            try:
                experiment.dataset_tensors(self.config(self.cache_dir), log=_quiet)
                checks.work("cache fill", self.n_graphs, True)
            except CapacityError:
                checks.work("cache fill", self.n_graphs, False)

    def pass_cache_dir(self, pass_dir: str) -> str:
        return self.cache_dir if self.warm else os.path.join(pass_dir, "cache")

    def run_pass(self, pass_dir: str, checks: Checks) -> dict:
        """One `graphcaps run`; returns its wall seconds as its only step."""
        argv = [
            "run", "--dataset", self.shape, "--data-root", self.data_root,
            "--out-root", os.path.join(pass_dir, "results"),
            "--cache-dir", self.pass_cache_dir(pass_dir), "--labelling", "bc", "--model", "capsules",
            "--preset", self.preset, "--folds", str(FOLDS), "--epochs", str(self.epochs),
            "--jobs", str(self.jobs), "-w", str(self.w), "-k", str(K), "--seed", str(self.seed),
        ]
        log = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            self.rc = cli.main(argv)
        wall = time.perf_counter() - t0
        with open(os.path.join(pass_dir, "cli.log"), "w") as fh:
            fh.write(log.getvalue())
        if not self.warm:
            checks.work("cold extraction", self.n_graphs, self.rc == 0)
        checks.work("folds", FOLDS, self.rc == 0)
        return {"graphcaps run": wall}

    def after_pass(self, pass_dir: str, checks: Checks) -> None:
        """Output checks and the measurements the CLI does not report."""
        if self.rc != 0:
            return
        (folds_csv,) = glob.glob(os.path.join(pass_dir, "results", "*", "folds.csv"))
        run_dir = os.path.dirname(folds_csv)
        with open(folds_csv, "rb") as fh:
            folds = fh.read()
        if self.first_folds is None:
            self.first_folds = folds
        else:
            checks.check("folds.csv identical across passes", folds == self.first_folds)
        with open(os.path.join(run_dir, "result.json")) as fh:
            self.samples["cv_accuracy"].append(json.load(fh)["mean_accuracy"])

        train_s = 0.0
        for fold in range(FOLDS):
            with open(os.path.join(run_dir, "traces", f"fold_{fold}.csv")) as fh:
                cumulative = [float(line.split(",")[-1]) for line in fh.readlines()[1:]]
            self.samples["epoch_s"].extend(np.diff([0.0] + cumulative).tolist())
            train_s += cumulative[-1]
        n_train = sum(int(line.split(",")[2]) for line in folds.decode().splitlines()[1:])
        self.samples["train_graphs_per_s"].append(n_train * self.epochs / train_s)

        # the cache's read path as run_cv takes it
        cfg = self.config(self.pass_cache_dir(pass_dir))
        t0 = time.perf_counter()
        x, y, _, _, ds = experiment.dataset_tensors(cfg, log=_quiet)
        self.samples["cache_load_s"].append(time.perf_counter() - t0)
        self.num_classes = ds.num_classes
        checks.check("tensors one-hot", one_hot_ok(x))

        # evaluation throughput of the workload's model; predict costs the
        # same for any weights, so a freshly built model stands in
        model = models.build_capsnet(self.w, K, self.channels, self.num_classes,
                                     cfg.capsnet_config(), seed=self.seed)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            models.evaluate_accuracy(model, x, y)
            times.append(time.perf_counter() - t0)
        self.samples["eval_graphs_per_s"].append(len(x) / statistics.median(times))

    def report(self) -> list:
        """(name, unit, samples, percentile or None) of each workload metric."""
        s = self.samples
        rows = [("train_graphs_per_s", "1/s", s["train_graphs_per_s"], None),
                ("epoch_s_p50", "s", s["epoch_s"], 50)]
        if len(s["epoch_s"]) >= 100:
            rows.append(("epoch_s_p90", "s", s["epoch_s"], 90))
        rows += [("eval_graphs_per_s", "1/s", s["eval_graphs_per_s"], None),
                 ("cv_accuracy", "ratio", s["cv_accuracy"], None)]
        if self.warm:
            rows.append(("cache_load_s", "s", s["cache_load_s"], None))
        return rows

    def probe(self) -> dict:
        return probe.probe_step(self.config(self.cache_dir), self.w, self.channels,
                                self.num_classes, PROBE_REPS, self.seed)



class ExtractWorkload:
    """NCI1-shaped extraction: for BC and canonical, a cold and then a warm
    `experiment.dataset_tensors`; then exact t-SNE of the raw BC tensors."""

    def __init__(self, name: str, seed: int):
        self.shape, self.w, self.jobs = EXTRACT
        self.seed = seed
        self.samples = {"tensorize_bc_graphs_per_s": [], "tensorize_canonical_graphs_per_s": [],
                        "cache_load_s": [], "tsne_s": []}

    def setup(self, dest: str, checks: Checks) -> None:
        graphs, num_labels = synth.generate(self.shape, self.seed)
        self.n_graphs, self.channels = len(graphs), num_labels + 1
        self.data_root = os.path.join(dest, "data")
        synth.write_tu(self.data_root, self.shape, graphs)

    def run_pass(self, pass_dir: str, checks: Checks) -> dict:
        """Both labellings cold and warm, then t-SNE; returns the seconds of
        each step (the output checks between them are not counted)."""
        steps = {}
        x_bc = y = None
        for labelling in ("bc", "canonical"):
            cfg = ExperimentConfig(
                dataset=self.shape, labelling=labelling, w=self.w, k=K, seed=self.seed,
                jobs=self.jobs, data_root=self.data_root,
                cache_dir=self.pass_cache_dir(pass_dir),
            )
            t0 = time.perf_counter()
            try:
                cold, y, *_ = experiment.dataset_tensors(cfg, log=_quiet)
            except CapacityError:
                checks.work(f"cold {labelling} extraction", self.n_graphs, False)
                continue
            seconds = steps[f"{labelling} cold"] = time.perf_counter() - t0
            checks.work(f"cold {labelling} extraction", self.n_graphs, True)
            self.samples[f"tensorize_{labelling}_graphs_per_s"].append(len(cold) / seconds)
            checks.check(f"{labelling} tensors one-hot", one_hot_ok(cold))
            t0 = time.perf_counter()
            warm, *_ = experiment.dataset_tensors(cfg, log=_quiet)
            seconds = steps[f"{labelling} warm"] = time.perf_counter() - t0
            self.samples["cache_load_s"].append(seconds)
            checks.check(f"{labelling} warm cache equals cold extraction",
                         warm.dtype == cold.dtype and warm.tobytes() == cold.tobytes())
            if labelling == "bc":
                x_bc = cold
            del cold, warm
        if x_bc is None:
            return steps
        t0 = time.perf_counter()
        res = analysis.tsne(x_bc.reshape(len(x_bc), -1), seed=self.seed, **TSNE)
        dist = analysis.cluster_distances(res.coords, y)
        seconds = steps["tsne"] = time.perf_counter() - t0
        self.samples["tsne_s"].append(seconds)
        checks.check("t-SNE KL falls", res.kl_final < res.kl_initial)
        checks.check("cluster distances finite",
                     bool(np.isfinite(dist.inter) and np.isfinite(dist.intra_pooled)))
        return steps

    def pass_cache_dir(self, pass_dir: str) -> str:
        return os.path.join(pass_dir, "cache")

    def after_pass(self, pass_dir: str, checks: Checks) -> None:
        pass

    def report(self) -> list:
        s = self.samples
        return [("tensorize_bc_graphs_per_s", "1/s", s["tensorize_bc_graphs_per_s"], None),
                ("tensorize_canonical_graphs_per_s", "1/s", s["tensorize_canonical_graphs_per_s"],
                 None),
                ("cache_load_s", "s", s["cache_load_s"], None),
                ("tsne_s", "s", s["tsne_s"], None)]

    def probe(self) -> dict:
        return {}  # this workload trains nothing


WORKLOADS = {**{name: CvWorkload for name in CV_WORKLOADS}, "extract_nci1": ExtractWorkload}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_layer(summary: dict, workload, pass_dir: str) -> dict:
    """Per-layer metrics of one traced pass."""
    names = summary["names"]

    def durations(name):
        return names[name]["durations"] if name in names else [0.0]

    out = {metric: names[span]["total_s"] if span in names else 0.0
           for metric, span in SPAN_TOTALS.items()}
    out["models.train_steps"] = names.get("nn.adam_step", {}).get("calls", 0)
    out["labelling.canonical_order_calls"] = names.get("labelling.canonical_order",
                                                       {}).get("calls", 0)
    graph_ms = 1e3 * np.asarray(durations("tensorize.graph_to_tensor"))
    out["tensorize.graph_ms_p50"] = float(np.percentile(graph_ms, 50))
    out["tensorize.graph_ms_p99"] = float(np.percentile(graph_ms, 99))
    calls = names.get("tensorize.graph_to_tensor", {}).get("calls", 0)
    out["tensorize.out_mb"] = calls * workload.w * K * workload.channels * 8 / 1e6  # float64
    cache_files = glob.glob(os.path.join(workload.pass_cache_dir(pass_dir), "*.gct"))
    out["tensor_cache.file_mb"] = sum(os.path.getsize(p) for p in cache_files) / 1e6
    folds = durations("experiment._run_fold")
    out["experiment.fold_s_p50"] = float(np.percentile(folds, 50))
    out["experiment.fold_s_max"] = float(max(folds))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    out["trace.spans"] = summary["spans"]
    return out


def pass_seconds(passes: list) -> float:
    """A pass's wall time as the sum over its steps of each step's median
    across ``passes``, so that a neighbour's burst slowing one step of one
    pass is left out."""
    steps = {step for p in passes for step in p}
    return sum(statistics.median(p[s] for p in passes if s in p) for s in steps)


def describe(name: str, unit: str, value, n: int) -> str:
    return f"  {name:<36} {value:>14.6g} {unit:<6} (n={n})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](args.workload, args.seed)
    checks = Checks()

    # set-up = importing the package + generating, writing (and on the warm
    # workload tensorizing) the dataset; this process imported once, fresh
    # interpreters give the other import samples
    setup_times = []
    for rep in range(SETUP_REPS):
        if rep:
            shutil.rmtree(os.path.join(work, f"setup{rep - 1}"))
        import_s = T_IMPORTED - T_START if rep == 0 else import_seconds()
        t0 = time.perf_counter()
        workload.setup(os.path.join(work, f"setup{rep}"), checks)
        setup_times.append(import_s + time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    tracer = Tracer(os.path.join(work, "trace")) if args.trace else None
    walls = {False: [], True: []}
    layer_rows, last_spans = [], []
    t_measure = time.perf_counter()
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        pass_dir = os.path.join(work, f"pass{passes}")
        os.makedirs(pass_dir)
        if traced:
            tracer.install()
        try:
            walls[traced].append(workload.run_pass(pass_dir, checks))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = tracer.collect()
            last_spans = spans
            summary = summarize(spans)
            summary["spans"] = len(spans)
            layer_rows.append(per_layer(summary, workload, pass_dir))
        workload.after_pass(pass_dir, checks)
        shutil.rmtree(pass_dir)
        passes += 1
        elapsed = time.perf_counter() - t_measure
        if passes >= MIN_PASSES and elapsed >= min(args.seconds, 150.0):
            break

    wall_s = pass_seconds(walls[False])
    report = [describe("setup_s", "s", setup_s, len(setup_times)),
              describe("wall_s", "s", wall_s, len(walls[False]))]
    extra = {}
    for name, unit, samples, pct in workload.report():
        value = float(np.percentile(samples, pct)) if pct else statistics.median(samples)
        extra[name] = {"value": value, "unit": unit, "n": len(samples)}
        report.append(describe(name, unit, value, len(samples)))
    rss = peak_rss_mb()
    success = 1.0 - checks.failed / checks.attempted
    report += [describe("peak_rss_mb", "MB", rss, 1),
               describe("success_ratio", "ratio", success, checks.attempted)]
    e2e = {"setup_s": setup_s, "wall_s": wall_s,
           "peak_rss_mb": rss, "success_ratio": success}

    if tracer is not None:
        layers = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        # the first pass of a process runs cold, so it is not the reference
        layers["trace.overhead_s"] = pass_seconds(walls[True]) - pass_seconds(walls[False][1:])
        probed = workload.probe()
        layers.update({name: probed.get(name, 0.0) for name in PER_LAYER if name not in layers})
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
        with open(os.path.join(work, "spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in last_spans)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    machine = machine_record()
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "passes": passes, "walls": {"untraced": walls[False], "traced": walls[True]},
                   "setup_times": setup_times, "end_to_end": e2e, "workload_metrics": extra,
                   "metrics": metrics, "failures": checks.failures, "machine": machine},
                  fh, indent=2)
    for name in os.listdir(work):
        if name.startswith("setup"):
            shutil.rmtree(os.path.join(work, name))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {passes} passes")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print("\n".join(report))
    if tracer is not None:
        print("per layer (traced pass; probe rows at the workload's training shapes):")
        print("\n".join(describe(n, m["unit"], m["value"], len(layer_rows))
                        for n, m in metrics.items()))
    for what in checks.failures:
        print(f"FAILED: {what}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
