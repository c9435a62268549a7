"""Each selftest suite catches a broken kernel: a one-expression mutation of a
real kernel makes the suite report failures that the healthy build does not."""

import pytest

from graphcaps import autodiff, labelling
from graphcaps.selftest import SUITES, run_suite
from helpers import healthy_suite, mutate

# name: (suite, module, function, expression, mutant)
MUTATIONS = {
    "brandes-drops-the-pair-term": (
        "betweenness-oracle", labelling, "_brandes", "(1.0 + delta[w])", "delta[w]",
    ),
    "equitable-keeps-insertion-order-canonical": (
        "canonical-invariance", labelling, "_equitable", "sorted(groups)", "groups",
    ),
    "pruning-merges-the-target-cell": (
        "canonical-invariance", labelling, "_Frame",
        "self.find(v) != self.find(u)", "False",
    ),
    "equitable-keeps-insertion-order-tensor": (
        "tensor-invariance", labelling, "_equitable", "sorted(groups)", "groups",
    ),
    "fields-ordered-by-node-id": (
        "tensor-invariance", labelling, "_fields", "place[node]", "node",
    ),
    "routing-backward-drops-the-softmax-term": (
        "gradient-checks", autodiff, "routing",
        "(g_c - (g_c * c).sum(axis=1, keepdims=True))", "g_c",
    ),
    "couplings-normalised-over-inputs": (
        "routing-sums", autodiff, "routing",
        "e / e.sum(axis=1, keepdims=True)", "e / e.sum(axis=2, keepdims=True)",
    ),
}


def test_every_suite_has_a_mutation():
    assert {suite for suite, *_ in MUTATIONS.values()} == set(SUITES)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_suite_fails_the_mutated_kernel(monkeypatch, mutation):
    suite, *patch = MUTATIONS[mutation]
    assert healthy_suite(suite)[0] == 0
    mutate(monkeypatch, *patch)
    failures, detail = run_suite(suite)
    assert failures > 0, detail


def test_suite_past_its_time_limit_fails(monkeypatch):
    suite, _ = SUITES["routing-sums"]
    monkeypatch.setitem(SUITES, "routing-sums", (suite, 0.0))
    assert run_suite("routing-sums")[0] == 1
