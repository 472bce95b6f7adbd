"""In-memory span recorder that wraps segfuse's public functions from outside.

Each layer module's public functions are replaced, in every segfuse module
that holds a reference to them, by a wrapper that records a span: name,
start, end, parent span and op id.  Callers look these names up as module
globals at call time, so `cli.cmd_prior -> build_prior -> resize_bilinear_array`
all pass through the wrappers without any change to the program.  Spans stay
in memory until the run ends.  Nothing is patched while end-to-end metrics
are timed.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import tracemalloc

# Layers whose public functions are wrapped.  `config` is left out on purpose:
# its time is argument handling and belongs to the cli layer's self time.
LAYERS = ("grid", "prompts", "embeddings", "prior", "fusion", "metrics",
          "competition", "synth")
# Only the entry point of the cli layer, so that `cli.main` self time is
# argparse, config merging and command glue.
EXTRA_FUNCTIONS = (("cli", "main"),)
METHODS = (("metrics", "ConfusionMatrix", "accumulate"),)


def _bytes_read(args, result):
    return {"grid.bytes_read": os.path.getsize(args["path"])}


def _bytes_written(args, result):
    return {"grid.bytes_written": os.path.getsize(args["path"])}


def _similarity_flops(args, result):
    store = args["store"]
    return {"prior.similarity_flops":
            2 * args["out_h"] * args["out_w"] * store.num_vectors * store.dim}


def _background_pixels(args, result):
    if result.background_index is None:
        return {}
    return {"fusion.background_pixels":
            int((result.data == result.background_index).sum())}


def _settings(args, result):
    return {"competition.settings": len(result)}


# Counters computed from a call's arguments and result (sizes and shapes,
# never program internals), attributed to the op the call belongs to.
HOOKS = {
    "grid.load_grid": _bytes_read,
    "grid.load_label_map": _bytes_read,
    "grid.save_grid": _bytes_written,
    "grid.save_label_map": _bytes_written,
    "prior.build_prior": _similarity_flops,
    "fusion.decode": _background_pixels,
    "competition.run_sweep": _settings,
}
MEMORY_SPAN = "prior.build_prior"


class Recorder:
    """Span and counter store; `install()` patches, `uninstall()` restores."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, op]
        self.counters = {}       # op -> {counter: value}
        self.op = None
        self.trace_memory = False
        self.peak_traced = {}    # op -> peak bytes seen around MEMORY_SPAN
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name, op=None):
        """A span opened by the bench itself, e.g. around one op."""
        if op is not None:
            self.op = op
        idx = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, start)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def _count(self, values):
        bucket = self.counters.setdefault(self.op, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        memory = name == MEMORY_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            watch = memory and self.trace_memory
            if watch:
                tracemalloc.start()
            idx = self._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
                if watch:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_traced[self.op] = max(
                        self.peak_traced.get(self.op, 0), peak)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(hook(bound.arguments, result))
            return result

        return wrapper

    def install(self):
        modules = {name[len("segfuse."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("segfuse.")}
        targets = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    targets[value] = f"{layer}.{attr}"
        for layer, attr in EXTRA_FUNCTIONS:
            targets[getattr(modules[layer], attr)] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = vars(cls)[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def summarize(spans, ops):
    """Per-name inclusive time, self time and call count over the given ops.

    Self time is a span's duration minus the time its child spans cover.
    Calls run on one thread, so children never overlap each other or leave
    their parent; `nesting_errors` counts spans that break this.
    """
    ops = set(ops)
    child_ns = [0] * len(spans)
    last_child_end = [None] * len(spans)
    nesting_errors = 0
    for name, start, end, parent, op in spans:
        if parent < 0:
            continue
        p = spans[parent]
        prev_end = last_child_end[parent]
        overlaps = prev_end is not None and start < prev_end
        if start < p[1] or end > p[2] or overlaps:
            nesting_errors += 1
        last_child_end[parent] = end
        child_ns[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        total = totals.setdefault(name, [0, 0, 0])
        total[0] += end - start
        total[1] += end - start - child_ns[i]
        total[2] += 1
    return totals, nesting_errors
