"""Forked worker processes, the only ones graphcaps starts: :func:`fork_map`
over items (CV folds, extraction chunks), :class:`RowWorkers` over blocks of
rows of shared state (exact t-SNE).  A worker that dies fails the call,
naming what it held, and leaving a call reaps every worker."""

import contextlib
import functools
import multiprocessing
import os
import time

# Seconds a closing pool waits for its workers to exit before it kills them.
_REAP_SECONDS = 1.0


def processes(jobs: int | None) -> int:
    """Processes, the caller included, for ``jobs`` (None: all cores); without
    fork, or in a worker (daemonic, so it may not fork), 1: the caller alone."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return (os.cpu_count() or 1) if jobs is None else jobs


class _Workers(contextlib.AbstractContextManager):
    """``count`` forked workers that answer tasks on their own pipes with ``call``
    (:func:`_serve`); leaving ``with`` kills any alive ``_REAP_SECONDS`` on."""

    def __init__(self, count: int, call):
        self.procs = {}  # the caller's end of a worker's pipe: the worker
        try:
            for _ in range(count):
                ours, theirs = multiprocessing.Pipe()
                proc = multiprocessing.get_context("fork").Process(
                    target=_serve, args=(theirs, call, [ours, *self.procs]), daemon=True)
                proc.start()
                theirs.close()
                self.procs[ours] = proc
        except BaseException:
            self.__exit__()
            raise

    def __exit__(self, *exc) -> None:
        for conn in self.procs:
            conn.close()
        deadline = time.monotonic() + _REAP_SECONDS
        for proc in self.procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.kill()
                proc.join()


def _answer(conn, proc, what) -> tuple:
    """``(True, result)`` or ``(False, exception)`` from the worker ``proc``
    on ``conn``; if it died, a ``RuntimeError`` naming ``what()``."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        proc.join(_REAP_SECONDS)
        return False, RuntimeError(f"{what()}: the worker process exited with code "
                                   f"{proc.exitcode}")


def _serve(conn, call, callers) -> None:
    """A worker: answer tasks with ``(True, call(task))`` or ``(False, exception)``
    until EOF, which comes once it has closed its copies of the caller's ends;
    an answer that does not pickle goes as a ``RuntimeError`` of its repr."""
    for other in callers:
        other.close()
    with contextlib.suppress(EOFError, OSError):  # the caller has closed its end
        while True:
            task = conn.recv()
            try:
                ok, value = True, call(task)
            except Exception as exc:  # the caller raises it
                ok, value = False, exc
            try:
                conn.send((ok, value))
            except Exception as exc:  # it did not pickle (if the pipe is gone, this fails too)
                conn.send((False, RuntimeError(repr(exc if ok else value))))


def fork_map(fn, items: list, jobs: int, *inherited, name):
    """Yield ``(i, fn(*inherited, items[i]))`` for each item as its result
    comes back, from up to ``processes(jobs)`` forked workers, which inherit
    ``fn`` and ``inherited``: an item, pickled, goes to whichever is free
    first.  A worker that dies raises a ``RuntimeError`` naming
    ``name(item)``, after every result that came back before it."""
    count = min(processes(jobs), len(items))
    if count < 2:
        yield from ((i, fn(*inherited, item)) for i, item in enumerate(items))
        return
    from multiprocessing.connection import wait  # here: at the top it slows every import
    with _Workers(count, functools.partial(fn, *inherited)) as workers:
        tasks, idle, held = iter(enumerate(items)), list(workers.procs), {}
        while True:
            for conn, (i, item) in zip(idle, tasks):  # idle first: zip drops no task
                held[conn] = i
                with contextlib.suppress(OSError):  # a dead worker shows at its answer
                    conn.send(item)
            if not held:
                return
            idle = wait(list(held))
            for conn in idle:
                i = held.pop(conn)
                ok, result = _answer(conn, workers.procs[conn], lambda: name(items[i]))
                if not ok:
                    raise result
                yield i, result


class RowWorkers(_Workers):
    """The caller and ``processes(jobs) - 1`` workers that inherit ``state``.
    ``run(fn, *args)`` calls ``fn(state, *args, lo, hi)`` on one run of whole
    ``block``-row blocks of ``range(m)`` per process, the first in the caller,
    and raises a worker's error once all end.  Workers are sent ``fn`` (by
    name), ``args`` and a run, so what they write, or what the caller changes
    after the fork, must be in shared memory."""

    def __init__(self, state, m: int, jobs: int | None, block: int):
        step = -(-m // (processes(jobs) * block)) * block
        self.runs = [(lo, min(lo + step, m)) for lo in range(0, m, step)]
        self.state = state
        super().__init__(len(self.runs) - 1, lambda task: task[0](state, *task[1:]))

    def run(self, fn, *args) -> None:
        for conn, (lo, hi) in zip(self.procs, self.runs[1:]):
            with contextlib.suppress(OSError):  # a dead worker shows at its answer
                conn.send((fn, *args, lo, hi))
        try:
            fn(self.state, *args, *self.runs[0])
        finally:
            errors = [value for ok, value in (_answer(*worker, lambda: fn.__name__)
                                              for worker in self.procs.items()) if not ok]
        if errors:
            raise errors[0]
