"""The one worker pool: graphcaps._pool's map over items, the guard that no
other module starts a process, and the pool's mutation table."""

import glob
import multiprocessing
import os
import re
import signal
import subprocess
import sys
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


def test_items_go_to_whichever_worker_is_free_and_come_back_in_order():
    # one slow item holds one worker while the other takes every fast one
    with time_limit(20):
        pids = list(_pool.fork_map(_pid_after, [0.5, 0, 0, 0, 0], 2, name=str))
    assert len(set(pids)) == 2 and len(set(pids[1:])) == 1
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
    assert got in ([], [10], [10, 11])
    assert multiprocessing.active_children() == []


TSNE = "tests/test_analysis.py::TestTsne::"
CHUNKS = "tests/test_tensorize.py::TestDatasetTensorization::"
BITS = TSNE + "test_same_bits_for_every_jobs[150]"
ROW_ERRORS = TSNE + "test_worker_errors_raise_in_the_caller"

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
        "_pool", "_serve", "reply = False, exc", "reply = True, None",
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
        "[(g, ds.graphs) for g in groups],",
        [CHUNKS + "test_chunk_tasks_carry_slices_not_graphs"],
    ),
    # in the map, a dead worker's item finishes; in a row run, its run succeeds
    "dead-worker-taken-for-an-answer": (
        "_pool", "_answer", "return False, RuntimeError(", "return True, (",
        ["tests/test_pool.py::test_a_dead_worker_fails_the_map_naming_its_item",
         "tests/test_cli.py::TestDeadWorkers", ROW_ERRORS],
    ),
}


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
