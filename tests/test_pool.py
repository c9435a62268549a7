"""The one worker pool: graphcaps._pool's map over items, the guard that no
other module starts a process, and the committed mutation table: the pool's
mutations and those of the loader, the chunk union, the warm cache hit, the
one-hot dtype and the models' input cast."""

import glob
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import graphcaps
from graphcaps import _pool
from helpers import time_limit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_only_the_pool_module_starts_processes():
    starts = re.compile(r"^\s*(import|from)\s+multiprocessing\b|\bos\.fork\b", re.M)
    for path in glob.glob(os.path.join(os.path.dirname(graphcaps.__file__), "*.py")):
        with open(path) as fh:
            source = fh.read()
        assert "Pool(" not in source, path
        if os.path.basename(path) != "_pool.py":
            assert not starts.search(source), path


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def test_items_go_to_whichever_worker_is_free_and_come_back_as_they_finish():
    # one slow item holds one worker while the other takes every fast one,
    # and each comes back with its index as soon as it is done
    with time_limit(20):
        got = list(_pool.fork_map(_pid_after, [0.5, 0, 0, 0, 0], 2, name=str))
    assert [i for i, _ in got] == [1, 2, 3, 4, 0]
    pids = dict(got)
    assert pids[0] != pids[1] and {pids[i] for i in range(1, 5)} == {pids[1]}
    assert multiprocessing.active_children() == []


def _exit_on_two(offset, item):
    if item == 2:
        os._exit(1)
    return offset + item


def test_a_dead_worker_fails_the_map_naming_its_item():
    got = []
    with time_limit(20), pytest.raises(RuntimeError,
                                       match="^item 2: the worker process exited with code 1$"):
        for result in _pool.fork_map(_exit_on_two, [0, 1, 2, 3], 2, 10,
                                     name=lambda item: f"item {item}"):
            got.append(result)
    # item 2 is sent once item 0 or 1 is back; item 3 may finish before it dies
    assert got and len(set(got)) == len(got) and set(got) <= {(0, 10), (1, 11), (3, 13)}
    assert multiprocessing.active_children() == []


def _unpicklable(item):
    if item == 1:
        raise ValueError(threading.Lock())
    return threading.Lock() if item == 3 else item


@pytest.mark.parametrize("items, error", [
    ([0, 1, 2], r"ValueError\(<unlocked _thread\.lock object"),
    ([0, 3, 2], r"TypeError\(\"cannot pickle '_thread\.lock' object\"\)"),
], ids=["error", "result"])
def test_an_answer_that_does_not_pickle_still_says_what_it_was(items, error):
    # the worker sends the repr of its error, or of the pickling error, and lives on
    with time_limit(20), pytest.raises(RuntimeError, match="^" + error):
        list(_pool.fork_map(_unpicklable, items, 2, name=str))
    assert multiprocessing.active_children() == []


TSNE = "tests/test_analysis.py::TestTsne::"
CHUNKS = "tests/test_tensorize.py::TestDatasetTensorization::"
LOADER = "tests/test_data.py::TestLoader::"
BITS = TSNE + "test_same_bits_for_every_jobs[150]"
ROW_ERRORS = TSNE + "test_worker_errors_raise_in_the_caller"
INTEGER_BITS = ("tests/test_analysis.py::TestPerplexitySearch::"
                "test_integer_points_give_the_bits_of_their_float64_copy")

# name: (module, function, expression, mutant, the tests that must all fail)
MUTATIONS = {
    "worker-keeps-the-callers-pipe-ends": (
        "_pool", "_serve", "other.close()", "other",
        [TSNE + "test_workers_exit_when_the_pool_closes"],
    ),
    "search-p-in-private-memory": (
        "analysis", "_Search", "_shared((m, m))", "np.zeros((m, m))", [BITS],
    ),
    "step-pn-in-private-memory": (
        "analysis", "_Layout", "_shared(m), _shared((m, 3)), _shared((m, 3))",
        "_shared(m), np.zeros((m, 3)), _shared((m, 3))", [BITS],
    ),
    "worker-answers-none-on-an-error": (
        "_pool", "_serve", "ok, value = False, exc", "ok, value = True, None",
        [ROW_ERRORS, CHUNKS + "test_capacity_error_names_the_graph[2]"],
    ),
    "no-fork-check": (
        "_pool", "processes", '"fork" not in multiprocessing.get_all_start_methods()', "False",
        [TSNE + "test_serial_pool_starts_no_process[3-False]"],
    ),
    "folds-sent-with-the-dataset": (
        "experiment", "run_cv", "(f, folds[f])", "(f, folds[f], x)",
        ["tests/test_experiment.py::TestRunCV::"
         "test_fold_task_size_does_not_grow_with_the_dataset"],
    ),
    "chunks-sent-with-their-graphs": (
        "tensorize", "tensorize_dataset", "_chunk_grids, groups,",
        "lambda e, gs, o, item: _chunk_grids(e, item[1], o, item[0]), "
        "[(g, ds) for g in groups],",
        [CHUNKS + "test_chunk_tasks_carry_slices_not_graphs"],
    ),
    # in the map, a dead worker's item finishes; in a row run, its run succeeds
    "dead-worker-taken-for-an-answer": (
        "_pool", "_answer", "return False, RuntimeError(", "return True, (",
        ["tests/test_pool.py::test_a_dead_worker_fails_the_map_naming_its_item",
         "tests/test_cli.py::TestDeadWorkers", ROW_ERRORS],
    ),
    "unpicklable-answer-kills-the-worker": (
        "_pool", "_serve", "conn.send((False, RuntimeError(repr(exc if ok else value))))",
        "raise", ["tests/test_pool.py::test_an_answer_that_does_not_pickle_still_says_what_it_was"],
    ),
    "warm-hit-also-loads-the-edges": (
        "experiment", "tensorize_cached", '"nothing to do: {cache_path}")',
        '"nothing to do: {cache_path}"); load_tu_dataset(cfg.data_root, name, labels)',
        ["tests/test_experiment.py::TestRunCV::test_warm_hit_reads_only_the_label_files"],
    ),
    "union-renamed-without-sorting-its-rows": (
        "labelling", "_Union", "nbr[np.argsort(row * total + nbr)]", "nbr",
        ["tests/test_labelling.py::TestUnion::test_renamed_chunk_is_each_graph_permuted_by_hand"],
    ),
    "loader-keeps-repeated-edges": (
        "data", "_csr", "pairs[1:] != pairs[:-1]", "pairs[1:] >= 0",
        [LOADER + "test_repeated_edge_lines_change_nothing", LOADER + "test_dataset_is_one_csr"],
    ),
    "graph-accepts-a-self-loop": (
        "data", "graph", "(u == v) | ", "",
        ["tests/test_data.py::TestGraphType::test_self_loop_rejected"],
    ),
    "one-hot-back-to-float32": (
        "data", "one_hot", "np.uint8", "np.float32",
        ["tests/test_experiment.py::TestRunCV::test_dataset_tensors_are_uint8_one_hot"],
    ),
    # _infer casts each chunk through _batch
    "input-not-cast-to-the-parameter-dtype": (
        "models", "_Classifier._batch", '.astype(self.params["conv1_w"].data.dtype, copy=False)',
        "", ["tests/test_models.py::TestDtype::test_uint8_one_hot_trains_as_its_float32_copy"],
    ),
    "gram-chunks-overwrite": (
        "analysis", "_pairwise_sq_dists", "np.add(out, scratch, out=out)",
        "np.copyto(out, scratch)", [INTEGER_BITS + "[uint8-1]", INTEGER_BITS + "[one-hot-2]"],
    ),
    "integer-sq-norms-multiplied-in-uint8": (
        "analysis", "_pairwise_sq_dists", "out.diagonal().copy() if exact else _sq_norms(x)",
        "_sq_norms(x)", [INTEGER_BITS + "[uint8-1]"],
    ),
    "integer-input-cast-whole": (
        "analysis", "joint_probabilities", "np.asarray(points)", "np.asarray(points, np.float64)",
        ["tests/test_analysis.py::TestPerplexitySearch::"
         "test_integer_points_are_not_copied_to_float64"],
    ),
}


@pytest.mark.mutations
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_pool_mutation_is_killed(mutation):
    # each mutant runs its tests in a fresh interpreter, bounded in time: a
    # mutant that hangs them counts as killed
    module, function, expression, mutant, tests = MUTATIONS[mutation]
    code = (f"import sys, pytest, helpers, graphcaps.{module} as module; "
            f"helpers.mutate(pytest.MonkeyPatch(), module, {function!r}, {expression!r}, "
            f"{mutant!r}); sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{tests!r}]))")
    path = [os.path.join(ROOT, d) for d in ("src", "tests")] + [os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return
    summary = out.strip().splitlines()[-1]
    assert proc.returncode == 1 and re.search(r"^\d+ failed in", summary), out
