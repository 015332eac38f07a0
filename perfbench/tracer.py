"""In-memory spans around the public functions of ttfedsim's layers.

Tracing patches module attributes. Every module-level name in the package
that is bound to a public function of a traced layer is replaced by a
wrapper that records a span, so a function that another module imported by
name (`engine.local_update`, `allocator.lambert_w_minus1`) is traced where
its caller resolves it. Calls made through a stored reference, such as
engine's table of algorithm loops, are not seen: their time is the
caller's self time (`engine.run` holds the loop's own time this way).

A span is (name, start, end, parent index, run id); the run id names one
operation of the benchmark (a setup, an algorithm run, the output stage).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "ttfedsim"
# `bound` is left out: its table costs microseconds and no run calls it.
LAYERS = (
    "datagen",
    "streams",
    "wireless",
    "numerics",
    "allocator",
    "learner",
    "aggregation",
    "engine",
    "cli",
)
ROOT_SPAN = "bench.comparison"


def _samples(counts, result, args, kwargs):
    labels = args[2] if len(args) > 2 else kwargs["labels"]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    counts["learner.samples"] += len(labels) * cfg.local_epochs


def _upload_ok(counts, result, args, kwargs):
    counts["wireless.upload_ok"] += bool(result)


def _qualified(counts, result, args, kwargs):
    counts["allocator.qualified"] += result is not None


def _selected(counts, result, args, kwargs):
    counts["allocator.selected"] += len(result.selected)


def _substituted(counts, result, args, kwargs):
    counts["datagen.substituted"] += sum(shard.substituted for shard in result)


# Counts taken at the same boundaries as the spans, keyed by span name.
COUNTERS = {
    "learner.local_update": _samples,
    "wireless.success_given_fading": _upload_ok,
    "allocator.qualify": _qualified,
    "allocator.select_users": _selected,
    "allocator.equal_share_plan": _selected,
    "datagen.partition": _substituted,
}


def layer_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (span name, function) for every traced public function."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    """Spans and counts of one traced comparison; patches while entered."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {
            key: self._wrap(name, fn, COUNTERS.get(name))
            for key, (name, fn) in layer_functions().items()
        }
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        run_id = self.run_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, run_id)


def summarize(tracers: list[Tracer]) -> dict:
    """Calls and inclusive seconds per span name, self seconds per layer and loop.

    A span's self time is its duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    loop_self: defaultdict = defaultdict(float)
    total = 0.0
    counts: Counter = Counter()
    for tracer in tracers:
        children = [0.0] * len(tracer.spans)
        for name, start, end, parent, _ in tracer.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent, run_id) in enumerate(tracer.spans):
            duration = end - start
            own = duration - children[index]
            calls[name] += 1
            inclusive[name] += duration
            layer_self[name.split(".", 1)[0]] += own
            if name == "engine.run":
                loop_self[run_id.rsplit(".", 1)[1]] += own
            if name == ROOT_SPAN:
                total += duration
        counts.update(tracer.counts)
    return {
        "calls": calls,
        "inclusive_s": inclusive,
        "layer_self_s": layer_self,
        "loop_self_s": loop_self,
        "total_s": total,
        "counts": counts,
    }


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """All spans as tab-separated rows; ids are unique across the tracers given."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\trun\tname\tstart\tend\n")
        offset = 0
        for tracer in tracers:
            for index, (name, start, end, parent, run_id) in enumerate(tracer.spans):
                parent_id = offset + parent if parent >= 0 else -1
                fh.write(f"{offset + index}\t{parent_id}\t{run_id}\t{name}\t{start!r}\t{end!r}\n")
            offset += len(tracer.spans)
