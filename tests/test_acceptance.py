"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria that need the real TU benchmark files (MUTAG, PTC_*) locate them via
GRAPHCAPS_DATA / ./data and skip with an explicit message when absent; this
build sandbox has no network route to the dataset hosts, so absence is an
environment limitation, not a product defect.  Everything else runs
unconditionally.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from graphcaps.analysis import joint_probabilities, perplexity_search, tsne
from graphcaps.autodiff import Tensor, grad_check
from graphcaps.cli import main
from graphcaps.data import Graph, permute_node_ids
from graphcaps.experiment import ExperimentConfig, run_cv, run_experiment
from graphcaps.labelling import Procedure, betweenness_centrality, canonical_certificate
from graphcaps.models import CapsNet, CapsNetConfig
from graphcaps.nn import dynamic_routing, margin_loss, total_loss
from graphcaps.tensorize import graph_to_tensor
from helpers import (
    all_simple_graphs,
    bruteforce_betweenness,
    random_graph,
    synthetic_dataset_graphs,
    write_tu_files,
)

from conftest import benchmark_data_root

DATA_SKIP = (
    "TU benchmark data not present: the build environment has no network route "
    "to the dataset hosts and no mirror package carries the files. Download the "
    "dataset into $GRAPHCAPS_DATA (or ./data) to run this criterion."
)


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _require_data(*names: str) -> str:
    root = benchmark_data_root()
    if root is None:
        pytest.skip(DATA_SKIP)
    for name in names:
        a_file = os.path.join(root, name, f"{name}_A.txt")
        flat = os.path.join(root, f"{name}_A.txt")
        if not (os.path.isfile(a_file) or os.path.isfile(flat)):
            pytest.skip(f"dataset {name} missing under {root}; " + DATA_SKIP)
    return root


@pytest.mark.slow
def test_criterion_1_mutag_ablation(tmp_path):
    root = _require_data("MUTAG")
    out_root = str(tmp_path / "results")
    start = time.perf_counter()
    rc = main(["run", "--dataset", "MUTAG", "--labelling", "bc", "--model", "capsules",
               "--preset", "paper", "--folds", "10", "--data-root", root,
               "--out-root", out_root, "--seed", "1"])
    assert rc == 0
    caps_dir = next(d for d in os.listdir(out_root) if "bc_capsules" in d)
    caps = json.load(open(os.path.join(out_root, caps_dir, "result.json")))
    rc = main(["run", "--dataset", "MUTAG", "--labelling", "nauty", "--model", "cnn",
               "--preset", "paper", "--folds", "10", "--data-root", root,
               "--out-root", out_root, "--seed", "1"])
    assert rc == 0
    elapsed = time.perf_counter() - start
    cnn_dir = next(d for d in os.listdir(out_root) if "canonical_cnn" in d)
    cnn = json.load(open(os.path.join(out_root, cnn_dir, "result.json")))
    ok = (
        caps["mean_accuracy"] >= 0.80
        and cnn["mean_accuracy"] >= 0.78
        and elapsed <= 20 * 60
    )
    report(1, ok, (
        f"MUTAG BC+Capsules {caps['mean_accuracy']:.3f} (>=0.80), "
        f"Nauty+CNN {cnn['mean_accuracy']:.3f} (>=0.78), {elapsed / 60:.1f} min (<=20)"
    ))


@pytest.mark.slow
def test_criterion_2_ablation_ordering(tmp_path):
    root = _require_data("MUTAG")
    means = {"capsules": [], "cnn": []}
    for model in means:
        for rep in range(3):
            cfg = ExperimentConfig(
                dataset="MUTAG", labelling="bc", model=model, preset="small",
                folds=10, seed=1 + rep, data_root=root,
                out_root=str(tmp_path / f"{model}_{rep}"),
            )
            means[model].append(run_cv(cfg, log=lambda *a: None).mean_accuracy)
    caps_mean = float(np.mean(means["capsules"]))
    cnn_mean = float(np.mean(means["cnn"]))
    report(2, caps_mean >= cnn_mean,
           f"MUTAG over 3 seeds: BC+Capsules {caps_mean:.3f} >= BC+CNN {cnn_mean:.3f}")


@pytest.mark.slow
def test_criterion_3_ptc_small(tmp_path):
    root = _require_data("PTC_MM", "PTC_FM", "PTC_MR", "PTC_FR")
    start = time.perf_counter()
    cfg = ExperimentConfig(
        dataset="PTC", labelling="bc", model="capsules", preset="small",
        folds=10, seed=1, data_root=root, out_root=str(tmp_path / "results"),
    )
    result = run_experiment(cfg, log=lambda *a: None)
    elapsed = time.perf_counter() - start
    ok = result.mean_accuracy >= 0.60 and elapsed <= 30 * 60
    report(3, ok, (
        f"PTC (MM/FM/MR/FR avg) BC+Capsules {result.mean_accuracy:.3f} (>=0.60), "
        f"{elapsed / 60:.1f} min (<=30)"
    ))


def test_criterion_4_permutation_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(0xACCE04)
    failures = 0
    for trial in range(100):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 6))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.9)), num_labels=d)
        for procedure in (Procedure.CANONICAL, Procedure.BETWEENNESS):
            ref = graph_to_tensor(g, w=10, k=6, d=5, procedure=procedure)
            for rep in range(5):
                h = permute_node_ids(g, [trial, rep])
                got = graph_to_tensor(h, w=10, k=6, d=5, procedure=procedure)
                if not np.array_equal(ref, got):
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(4, ok, (
        f"100 graphs x 5 permutations x both labellings bitwise identical "
        f"({failures} failures, {elapsed:.1f}s < 60s)"
    ))


def test_criterion_5_betweenness_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0xACCE05)
    worst = 0.0
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)),
                         connected=True)
        got = betweenness_centrality(g)
        want = bruteforce_betweenness(g)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(5, ok, (
        f"200 connected graphs n<=8 vs path-enumeration oracle, "
        f"max |err| {worst:.2e} <= 1e-9 ({elapsed:.1f}s < 10s)"
    ))


def test_criterion_6_canonical_form_oracle():
    start = time.perf_counter()
    by_cert = {}
    ok = True
    for g in all_simple_graphs(4):
        ref = canonical_certificate(g)
        by_cert.setdefault(ref, 0)
        by_cert[ref] += 1
        for perm in itertools.permutations(range(4)):
            h = Graph(
                n=4,
                edges=frozenset(
                    tuple(sorted((perm[u], perm[v]))) for u, v in g.edges
                ),
                node_labels=(0, 0, 0, 0),
                class_label=0,
            )
            if canonical_certificate(h) != ref:
                ok = False
    elapsed = time.perf_counter() - start
    # 64 labelled graphs fall into exactly 11 isomorphism classes
    ok = ok and len(by_cert) == 11 and sum(by_cert.values()) == 64 and elapsed < 5.0
    report(6, ok, (
        f"all 4-node graphs x 4! relabellings: {len(by_cert)} certificate classes "
        f"(expected 11), every relabelling identical ({elapsed:.1f}s < 5s)"
    ))


def test_criterion_7_gradient_suite():
    start = time.perf_counter()
    cfg = CapsNetConfig(
        conv_filters=6, conv_kernel=3, primary_kernel=1, primary_stride=1,
        primary_channels=2, primary_dim=4, caps_dim=6, decoder_hidden=(8, 12),
        loss_mode="margin",
    )
    model = CapsNet(4, 3, 4, 2, cfg, seed=11)
    rng = np.random.default_rng(12)
    x = np.zeros((4, 4, 3, 4))
    idx = rng.integers(0, 4, size=(4, 4, 3))
    for b in range(4):
        for i in range(4):
            for j in range(3):
                x[b, i, j, idx[b, i, j]] = 1.0
    y = np.array([0, 1, 1, 0])
    names = sorted(model.params)

    def loss_fn(*tensors):
        for name, t in zip(names, tensors):
            model.params[name] = t
        loss, _ = model.loss_batch(x, y, train=True)
        return loss

    err = grad_check(loss_fn, [model.params[n].data.copy() for n in names], h=1e-5)
    elapsed = time.perf_counter() - start
    ok = err < 1e-4 and elapsed < 30.0
    report(7, ok, (
        f"end-to-end capsnet gradient (w=4,k=3,d=3,C=2) vs central differences: "
        f"max rel err {err:.2e} < 1e-4 ({elapsed:.1f}s < 30s)"
    ))


def test_criterion_8_loss_identities():
    checks = []
    # margin loss closed forms
    checks.append(margin_loss(np.array([0.9, 0.1, 0.1]), 0).item() == 0.0)
    checks.append(margin_loss(np.zeros(3), 0).item() == 0.9**2)
    checks.append(margin_loss(np.array([0.9, 1.0]), 0, lam=0.5).item() == 0.5 * 0.9**2)
    # combined-objective additivity
    checks.append(total_loss(Tensor(0.0), Tensor(0.0)).item() == 0.0)
    checks.append(total_loss(Tensor(0.81), Tensor(0.0), alpha=1.0).item() == 0.81)
    checks.append(abs(total_loss(Tensor(0.3), Tensor(0.2), alpha=0.5).item() - 0.4) < 1e-15)
    rng = np.random.default_rng(0xACCE08)
    a, b, alpha = rng.uniform(0, 2, 3)
    checks.append(
        abs(total_loss(Tensor(a), Tensor(b), alpha=alpha).item() - (a + alpha * b)) < 1e-12
    )
    # routing coupling rows over 1..5 iterations
    rows_ok = True
    for iters in range(1, 6):
        u_hat = rng.normal(size=(3, 7, 4, 5))
        _, trace = dynamic_routing(u_hat, iters, return_trace=True)
        for c in trace:
            if not np.allclose(c.sum(axis=-1), 1.0, atol=1e-9):
                rows_ok = False
    checks.append(rows_ok)
    report(8, all(checks), (
        "margin-loss closed forms exact, combined objective additive, "
        "coupling rows sum to 1 ± 1e-9 for 1..5 iterations"
    ))


def test_criterion_9_tsne_properties():
    rng = np.random.default_rng(0xACCE09)
    blob_a = rng.normal(0.0, 1.0, (10, 50)) - 5.0
    blob_b = rng.normal(0.0, 1.0, (10, 50)) + 5.0
    points = np.vstack([blob_a, blob_b])
    labels = np.array([0] * 10 + [1] * 10)

    P = joint_probabilities(points, perplexity=5.0)
    sym = np.allclose(P, P.T, atol=1e-12) and abs(P.sum() - 1.0) <= 1e-9

    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    cond, _ = perplexity_search(sq, perplexity=5.0, tol=1e-4)
    target = math.log(5.0)
    perp_ok = True
    for i in range(len(points)):
        row = np.delete(cond[i], i)
        h = -(row[row > 0] * np.log(row[row > 0])).sum()
        if abs(h - target) > 1e-3:
            perp_ok = False

    res = tsne(points, perplexity=5.0, iters=400, seed=5)
    mu0 = res.coords[labels == 0].mean(axis=0)
    mu1 = res.coords[labels == 1].mean(axis=0)
    proj = res.coords @ (mu1 - mu0)
    separable = proj[labels == 0].max() < proj[labels == 1].min()
    kl_ok = res.kl_final < res.kl_initial

    ok = sym and perp_ok and kl_ok and separable
    report(9, ok, (
        f"P symmetric/normalized ({sym}), sigma search within 1e-3 ({perp_ok}), "
        f"KL {res.kl_initial:.3f} -> {res.kl_final:.3f} decreasing ({kl_ok}), "
        f"2-D blobs separable ({separable})"
    ))


def test_criterion_10_run_determinism(tmp_path):
    data_root = str(tmp_path / "data")
    write_tu_files(data_root, "SYN", synthetic_dataset_graphs(num_graphs=20, seed=6))
    blobs = []
    for attempt in ("a", "b"):
        out_root = str(tmp_path / attempt)
        rc = main(["run", "--dataset", "SYN", "--data-root", data_root,
                   "--out-root", out_root, "--preset", "small", "--folds", "4",
                   "--epochs", "3", "--seed", "7"])
        assert rc == 0
        run_dir = next(d for d in os.listdir(out_root) if d.startswith("SYN"))
        blobs.append(open(os.path.join(out_root, run_dir, "folds.csv"), "rb").read())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(10, ok, "repeated `run` with identical manifest produced byte-identical folds.csv")
