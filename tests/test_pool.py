"""The one worker pool: graphcaps._pool's map over items, the guard that no
other module starts a process, and the committed mutation table: the pool's
mutations and those of the loader and its line reader, the `jobs` check, the
chunk union, the warm cache hit, the orders file's refusals, the one-hot
dtype, the models' input cast, the t-SNE step sums, the Gram product, the
convolution's patches and fused ReLU, the leaf Adam updates and the walk
that reaches each leaf after its last rule, caps_predict's gradient read in
place, the kept pages and the inference chunk; and the known survivors, each
expected to survive."""

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
ORDERS = ("tests/test_experiment.py::TestOrderCache::"
          "test_unusable_orders_file_searched_and_rewritten")
BOUNDS = "tests/test_models.py::TestMemoryBounds::"
LEAF_BITS = "tests/test_models.py::TestTraining::test_leaf_updates_match_backward_then_adam_step"

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
    # each refusal of a damaged orders file, removed or weakened
    "orders-file-not-an-archive-read": (
        "tensor_cache", "_load", "not zipfile.is_zipfile(fh)", "False",
        [ORDERS + "[not_an_archive]"],
    ),
    "orders-file-crc-unchecked": (
        "tensor_cache", "zipfile.ZipExtFile._update_crc",
        "self._eof and self._running_crc != self._expected_crc", "False",
        [ORDERS + "[swapped_orders]"],
    ),
    "orders-file-missing-member-read": (
        "tensor_cache", "_load", "sorted(members) != expected", "False",
        [ORDERS + "[missing_member]"],
    ),
    "orders-file-members-a-superset": (
        "tensor_cache", "_load", "sorted(members) != expected",
        "not set(expected) <= set(members)", [ORDERS + "[extra_member]"],
    ),
    "orders-file-other-version-read": (
        "tensor_cache", "_load", 'not np.array_equal(members["version"], VERSION)', "False",
        [ORDERS + "[other_version]"],
    ),
    "orders-file-other-digest-read": (
        "tensor_cache", "_load", 'members["digest"].tobytes() != digest', "False",
        [ORDERS + "[other_digest]"],
    ),
    "orders-file-other-dtype-read": (
        "tensor_cache", "load_orders", "orders.dtype != np.uint16 or ", "",
        [ORDERS + "[other_dtype]"],
    ),
    "orders-file-wrong-length-read": (
        "tensor_cache", "load_orders", " or orders.shape != (total,)", "",
        [ORDERS + "[wrong_length]"],
    ),
    "orders-file-repeated-node-read": (
        "tensor_cache", "load_orders", "if bad.size:", "if False:", [ORDERS + "[repeated_node]"],
    ),
    "step-sums-a-2d-block-product": (
        "analysis", "_step_rows", "[:, None, :], s.yext, out=s.pn[a:b, None]",
        ", s.yext, out=s.pn[a:b]", [TSNE + "test_step_sums_equal_whole_matrix_sums[7]"],
    ),
    "gram-chunks-overwrite": (
        "analysis", "_pairwise_sq_dists", "np.add(acc, part, out=acc)", "np.copyto(acc, part)",
        [INTEGER_BITS + "[uint8-1]", INTEGER_BITS + "[one-hot-2]",
         INTEGER_BITS + "[uint8-255-rows-1]"],
    ),
    "integer-sq-norms-multiplied-in-uint8": (
        "analysis", "_pairwise_sq_dists", "out.diagonal().copy()", "_sq_norms(x)",
        [INTEGER_BITS + "[uint8-1]"],
    ),
    "gram-float32-past-its-bound": (
        "analysis", "_pairwise_sq_dists",
        "_float32_sums_exactly(int(top.max(initial=0)), len(cols))", "True",
        [INTEGER_BITS + "[uint8-255-rows-1]"],
    ),
    "gram-drops-an-occupied-column": (
        "analysis", "_pairwise_sq_dists", "x.max(axis=0)", "x[0]",
        [INTEGER_BITS + "[lone-column-1]"],
    ),
    "gram-signed-magnitude-from-the-max": (
        "analysis", "_pairwise_sq_dists",
        "np.maximum(top, np.negative(x.min(axis=0), dtype=np.int64))", "top",
        [INTEGER_BITS + "[int16-negative-1]"],
    ),
    "gram-float32-buffers-allocated": (
        "analysis", "_pairwise_sq_dists", "scratch.reshape(-1).view(np.float32).reshape(2, m, m)",
        "np.empty((2, m, m), np.float32)",
        ["tests/test_analysis.py::TestPerplexitySearch::"
         "test_integer_gram_sums_in_the_scratch_buffer"],
    ),
    "integer-input-cast-whole": (
        "analysis", "joint_probabilities", "np.asarray(points)", "np.asarray(points, np.float64)",
        ["tests/test_analysis.py::TestPerplexitySearch::"
         "test_integer_points_are_not_copied_to_float64"],
    ),
    # the loader's six (line numbers, blank lines, column and character
    # checks, the "u, v" delimiter, the loadtxt path), the line reader's two
    # and the jobs clamp, each as the current reader states it
    "loader-line-numbers-off-by-one": (
        "data", "_read_lines", "kept[row] + 1", "kept[row]", [LOADER + "test_first_bad_line_wins"],
    ),
    "loader-counts-blank-lines": (
        "data", "_read_lines", "if line.strip()]", "]",
        [LOADER + "test_line_endings_and_signs_load_the_same", LOADER + "test_plain_layout_bounds"],
    ),
    "loader-no-column-check": (
        "data", "_read_lines", "len(row) != width or ", "", [LOADER + "test_plain_layout_bounds"],
    ),
    "loader-no-character-check": (
        "data", "_loadtxt_rows", "if text.translate(_PLAIN):", "if False:",
        [LOADER + "test_plain_layout_bounds"],
    ),
    "loader-whitespace-delimits-u-v-lines": (
        "data", "_loadtxt_rows", 'delimiter="," if width == 2 else None', "delimiter=None",
        [LOADER + "test_tu_layout_takes_numpy_reader", LOADER + "test_plain_layout_bounds"],
    ),
    "loader-never-takes-loadtxt": (
        "data", "_read_rows", "values = _loadtxt_rows(path, text, width)", "values = None",
        [LOADER + "test_tu_layout_takes_numpy_reader",
         LOADER + "test_line_endings_and_signs_load_the_same"],
    ),
    "line-reader-keeps-empty-fields": (
        "data", "_read_lines", " or not all(row)", "", [LOADER + "test_plain_layout_bounds"],
    ),
    "line-reader-reads-commas-as-spaces": (
        "data", "_read_lines", '[f.strip() for f in lines[i].split(",")] if "," in lines[i]',
        'lines[i].replace(",", " ").split() if "," in lines[i]',
        [LOADER + "test_plain_layout_bounds"],
    ),
    "jobs-below-one-clamped": (
        "_pool", "processes",
        'if jobs is not None and jobs < 1:\n        raise ValueError(f"jobs must be >= 1, got {jobs}")',
        "if jobs is not None:\n        jobs = max(1, jobs)",
        [TSNE + "test_jobs_below_one_rejected",
         CHUNKS + "test_jobs_below_one_rejected",
         "tests/test_experiment.py::TestExperimentConfig::test_bad_training_setting_rejected[jobs-0]"],
    ),
    # the patches rebuilt in the backward, the fused ReLU's mask, each leaf
    # updated once and reached right after its last rule, caps_predict's
    # gradient read in place, freed pages kept, and the inference chunk
    # sized by its patches
    "conv2d-keeps-its-patches": (
        "autodiff", "conv2d", "_patches(x.data, fh, fw, sh, sw, dtype).T", "cols.T",
        [BOUNDS + "test_epoch_holds_only_what_the_backward_reads"],
    ),
    "fused-relu-backward-drops-its-mask": (
        "autodiff", "conv2d", "g *= out_data > 0", "g = g",
        ["tests/test_autodiff.py::TestGradCheck::test_every_op_differentiates[conv_relu]",
         "tests/test_models.py::TestCnnBaseline::test_gradient_check"],
    ),
    "leaf-update-skipped-for-one-parameter": (
        "models", "train_model", "nn.adam_update(name, pending.pop(name), leaf.grad, state, lr)",
        "pending.pop(name) if name == 'conv1_b' else "
        "nn.adam_update(name, pending.pop(name), leaf.grad, state, lr)",
        [LEAF_BITS],
    ),
    "leaf-update-applied-twice-to-one-parameter": (
        "models", "train_model", "pending.pop(name)",
        "(pending[name] if name == 'conv1_b' else pending.pop(name))", [LEAF_BITS],
    ),
    "leaves-reached-after-the-rules-below-them": (
        "autodiff", "Tensor.backward", "(True, False)", "(False, True)",
        [BOUNDS + "test_epoch_holds_only_what_the_backward_reads[paper]",
         "tests/test_autodiff.py::TestElementwiseAndShapes::"
         "test_each_leaf_is_handed_over_right_after_its_last_rule"],
    ),
    "caps-predict-copies-its-gradient": (
        "autodiff", "caps_predict", "g.reshape(B, n_in, n_out * d_out).transpose(1, 0, 2)",
        "np.ascontiguousarray(g.reshape(B, n_in, n_out * d_out).transpose(1, 0, 2))",
        ["tests/test_autodiff.py::TestCapsPredict::"
         "test_forward_and_backward_copy_no_prediction_sized_array"],
    ),
    "freed-pages-given-back": (
        "models", "train_model", "_keep_freed_pages()", "None",
        [BOUNDS + "test_steps_fault_in_no_freed_pages"],
    ),
    # stale state: every labelling of one command trains on the first one's tensors
    "first-labellings-tensors-for-every-labelling": (
        "cli", "cmd_run", "data[cfg.labelling])", "data[configs[0].labelling])",
        ["tests/test_cli.py::TestLists::test_ablation_matches_single_value_runs"],
    ),
    "inference-chunk-back-to-256": (
        "models", "_Classifier.__init__", "min(MAX_CHUNK, max(1, CHUNK_BYTES // patch_bytes))",
        "256", [BOUNDS + "test_predict_holds_one_chunk_of_patches"],
    ),
}

# Known survivors: mutants that no test kills yet, listed so the gap stays
# visible.  Each row is expected to survive; a test that kills it makes the
# row fail, and the row then moves to MUTATIONS.
SURVIVORS = {
    # every automorphism may merge orbits; no graph found so far makes the
    # search return another order (see CHANGES.md, the pruning's FOUND line)
    "frame-fixes-every-automorphism": (
        "labelling", "_Frame.fixes",
        "return all(self.cell_of[w] == i for w, i in zip(gamma, self.cell_of))", "return True",
        ["tests/test_labelling.py::TestCanonicalOrder"],
    ),
}


@pytest.mark.mutations
@pytest.mark.parametrize("mutation", [*MUTATIONS, *(
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason="a known survivor"))
    for name in SURVIVORS)])
def test_pool_mutation_is_killed(mutation):
    # each mutant runs its tests in a fresh interpreter, bounded in time: a
    # mutant that hangs them counts as killed
    module, function, expression, mutant, tests = {**MUTATIONS, **SURVIVORS}[mutation]
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
