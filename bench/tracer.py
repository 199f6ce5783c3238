"""Spans around dmin's public functions, installed from outside the package.

The tracer replaces a fixed list of names with timing wrappers at the
places where ``dmin`` looks them up (module globals and class
attributes), runs the traced code, then puts the originals back.  No
code under ``src/`` knows about it.

* A name that no longer exists is reported as an absent layer, not an
  error, so the trace keeps working while the package is refactored.
* Wrappers pass ``*args`` and ``**kwargs`` through unchanged and touch
  no random-number generator and no output, so a traced call computes
  exactly what an untraced one does.
* Each span records its name, start, end, parent span and thread id.
  Spans stay in memory; :meth:`Tracer.summary` turns them into self
  times once the traced work is done.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter
from dataclasses import dataclass

# (module, attribute path, span name).  Several names may share a span
# name; they are then one layer.
TARGETS = (
    ("dmin.harness", "dmm_adapt", "routing.dmm"),
    ("dmin.harness", "qim_induce", "routing.qim"),
    ("dmin.harness", "few_scores", "classifier.score"),
    ("dmin.harness", "base_scores", "classifier.score"),
    ("dmin.harness", "loss_episode", "classifier.loss"),
    ("dmin.harness", "loss_supervised", "classifier.loss"),
    ("dmin.harness", "sample_episode", "episodes.sample"),
    ("dmin.harness", "episode_forward", "harness.forward"),
    ("dmin.numerics", "backward", "numerics.backward"),
    ("dmin.model", "Adam.step", "model.adam"),
    ("dmin.model", "Model.encode", "model.encode"),
    ("dmin.model", "Model.tensors", "model.tensors"),
    ("dmin.model", "load_checkpoint", "model.load_checkpoint"),
    ("dmin.encoder", "hash_counts", "encoder.hash"),
)

STAGE = "harness.stage"
# Work the tracer itself does inside a traced call (reading the tape);
# kept as a span so that it is not charged to the stage.
BOOKKEEPING = "bench.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def memory_rows(memory) -> int:
    """Memory rows routed in one call: every row of every leading axis."""
    arr = getattr(memory, "array", memory)
    if isinstance(arr, (list, tuple)):
        return len(arr)
    shape = getattr(arr, "shape", ())
    if len(shape) < 2:
        return 1
    return int(arr.size // shape[-1])


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def reached_nodes(tape, root) -> int:
    """Nodes of ``tape`` on a path to ``root`` (``root`` included)."""
    nodes = tape.nodes
    reached = bytearray(len(nodes))
    reached[root.node_id] = 1
    count = 0
    for k in range(root.node_id, -1, -1):
        if not reached[k]:
            continue
        count += 1
        for pid in nodes[k].parent_ids:
            if pid is not None:
                reached[pid] = 1
    return count


class Tracer:
    """Record spans and counts for the names in :data:`TARGETS`.

    Use as a context manager around the traced work; ``stage()`` opens
    the span that stands for one timed stage call.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.ops: Counter = Counter()
        self.absent: list[str] = []
        self._saved: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stage: int | None = None

    # -- installing ------------------------------------------------------

    def __enter__(self):
        self.absent = []
        for module_name, path, span in self.targets:
            owner, attr = self._resolve(module_name, path)
            if owner is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    @staticmethod
    def _resolve(module_name, path):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if attr not in getattr(owner, "__dict__", {}):
            return None, None
        return owner, attr

    def _wrap(self, fn, span):
        count = self._counter(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(args, kwargs)
            index = self._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _counter(self, span):
        """Per-call counting, done before the span opens."""
        if span == "routing.dmm":
            return lambda a, k: self._count(
                span, memory_rows(_arg(a, k, 2, "w_base")))
        if span == "routing.qim":
            return lambda a, k: self._count(
                span, memory_rows(_arg(a, k, 2, "adapted_supports")))
        if span == "model.adam":
            return lambda a, k: self._count(
                span, sum(getattr(g, "size", 0)
                          for g in dict(_arg(a, k, 2, "grads") or {})
                          .values()))
        if span == "numerics.backward":
            return self._read_tape
        return lambda a, k: self._count(span, 0)

    def _count(self, span, rows):
        with self._lock:
            self.counts[span + ".calls"] += 1
            self.counts[span + ".rows"] += rows

    def _read_tape(self, args, kwargs):
        index = self._open(BOOKKEEPING)
        try:
            tape = _arg(args, kwargs, 0, "tape")
            root = _arg(args, kwargs, 1, "root")
            nodes = getattr(tape, "nodes", ())
            ops = Counter(getattr(node, "op", "?") for node in nodes)
            reached = (reached_nodes(tape, root)
                       if getattr(root, "node_id", None) is not None else 0)
            with self._lock:
                self.counts["numerics.backward.calls"] += 1
                self.counts["numerics.tape_nodes"] += len(nodes)
                self.counts["numerics.tape_reached"] += reached
                self.ops.update(ops)
        finally:
            self._close(index)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._stage
        span = Span(name, time.perf_counter(), 0.0, parent,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def stage(self):
        """One timed stage call: the root of the spans opened inside it,
        on this thread or on worker threads."""
        index = self._open(STAGE)
        self._stage = index
        try:
            yield
        finally:
            self._close(index)
            self._stage = None

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time per span name in seconds, plus the stage totals.

        A span's self time is its duration minus the durations of its
        children on the same thread.  A stage span's children may run on
        worker threads, so its self time is its duration minus the union
        of its children's intervals: the time in which no traced work ran.
        """
        children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(i)
        self_s: Counter = Counter()
        stage_wall = 0.0
        for i, span in enumerate(self.spans):
            kids = [self.spans[k] for k in children.get(i, ())]
            duration = span.end - span.start
            if span.name == STAGE:
                stage_wall += duration
                covered = _union(
                    (max(k.start, span.start), min(k.end, span.end))
                    for k in kids)
                self_s[STAGE] += duration - covered
            else:
                self_s[span.name] += duration - sum(
                    k.end - k.start for k in kids if k.thread == span.thread)
        episode_s = sum(s.end - s.start for s in self.spans
                        if s.name in ("harness.forward", "episodes.sample"))
        return {"self_s": self_s, "stage_wall_s": stage_wall,
                "episode_span_s": episode_s}


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= max(lo, end):
            continue
        total += hi - max(lo, end)
        end = hi
    return total
