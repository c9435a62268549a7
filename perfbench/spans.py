"""Span tracing of the graphcaps layers from outside the package.

:class:`Tracer` replaces the public functions of each layer module (and the
few methods that carry a training step) with wrappers that record a span:
name, start, end and the span that was open when it started.  Spans live in
memory; a forked worker appends its spans to ``spans-<pid>.jsonl`` in the
trace directory whenever its outermost span closes, because pool workers end
without running exit handlers.  Nothing under ``src/`` is modified: the
wrappers are installed for one pass and removed after it.

A layer's self time is the time its spans were open minus the part of that
time covered by their child spans (children in worker processes overlap, so
the covered part is the union of their intervals).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("data", "labelling", "tensorize", "tensor_cache", "autodiff", "nn", "models",
          "experiment", "analysis")
# Methods that carry the training step; other methods of Tensor are too small
# and too frequent to trace.
METHODS = {
    "autodiff": ("Tensor.backward",),
    "models": ("CapsNet.forward", "CapsNet.loss_batch", "CapsNet.predict"),
}
# The fold is the unit of work of the CV harness; it is private but is the
# function the fold pool runs.
EXTRA = {"experiment": ("_run_fold",)}
SKIP = {"autodiff.no_grad"}  # returns a context manager; its call is not work


def _targets(module):
    """(owner, attribute, qualified span name) for each traced callable."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
            not attr.startswith("_") or attr in EXTRA.get(layer, ())
        ):
            name = f"{layer}.{attr}"
            if name not in SKIP:
                out.append((module, attr, name))
    for path in METHODS.get(layer, ()):
        cls_name, meth = path.split(".")
        out.append((getattr(module, cls_name), meth, f"{layer}.{path}"))
    return out


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.spans: list = []  # [id, parent, name, start, end]
        self.stack: list = []
        self.pid = self.root_pid = os.getpid()
        self.base_depth = 0
        self.next_id = 0
        self._patches: list = []
        os.makedirs(trace_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)

    def _flush_child(self):
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.next_id += 1
            sid = f"{tracer.pid}.{tracer.next_id}"
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append([sid, parent, name, start, end])
                if tracer.pid != tracer.root_pid and len(tracer.stack) == tracer.base_depth:
                    tracer._flush_child()

        return traced

    def install(self):
        """Wrap every traced callable, in its own module and wherever another
        graphcaps module imported it by name."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"graphcaps.{layer}")
            for owner, attr, name in _targets(module):
                fn = vars(owner)[attr]
                wrapped[id(fn)] = (fn, self._wrap(name, fn))
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped[id(fn)][1])
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "graphcaps" or mod_name.startswith("graphcaps."):
                for attr, obj in list(vars(module).items()):
                    fn, wrapper = wrapped.get(id(obj), (None, None))
                    if obj is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def collect(self) -> list:
        """All spans of the pass, this process's and its workers', then reset."""
        spans = list(self.spans)
        self.spans = []
        for fname in sorted(os.listdir(self.trace_dir)):
            if fname.startswith("spans-") and fname.endswith(".jsonl"):
                path = os.path.join(self.trace_dir, fname)
                with open(path) as fh:
                    spans.extend(json.loads(line) for line in fh)
                os.remove(path)
        return spans


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds, durations; and per
    layer: self seconds."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
    layer_self = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        dur = end - start
        self_s = dur - _covered(children.get(sid, ()), start, end)
        row = by_name[name]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += self_s
        row["durations"].append(dur)
        layer_self[name.split(".", 1)[0]] += self_s
    return {"names": dict(by_name), "layer_self_s": dict(layer_self)}
