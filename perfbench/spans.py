"""Timing of operations and calls, and the opt-in span trace.

A `Recorder` times every operation (one solver call, or one certified
instance) and every solver or certify call inside it.  When tracing is on
it also keeps a span per operation and per call (name, start, end,
parent, operation id) and wraps the layer methods `evaluate`, `can_add`,
`add` and `is_independent` on the instance objects.  Layer calls are not
kept one by one: a certify-small pass makes millions of `can_add` calls,
so each is added to its enclosing span as a (count, seconds) aggregate,
which is all the per-layer metrics need.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYER_METHODS = {"objective": ("evaluate",),
                 "constraint": ("can_add", "add", "is_independent")}


class Span:
    __slots__ = ("op", "group", "name", "parent", "start", "end", "layers")

    def __init__(self, op, group, name, parent, start):
        self.op = op
        self.group = group
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.layers: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def layer_time(self) -> float:
        return sum(t for _, t in self.layers.values())

    def to_dict(self, index) -> dict:
        return {"id": index, "op": self.op, "group": self.group, "name": self.name,
                "parent": self.parent,
                "start": self.start, "end": self.end,
                "layers": {k: {"calls": c, "s": t} for k, (c, t) in self.layers.items()}}


@dataclass
class CallRecord:
    name: str
    op: str  # key of the operation the call belongs to
    execution: int  # how many times the group had run before this call
    traced: bool
    start: float  # perf_counter() when the call started
    seconds: float
    queries: int
    checks: int
    info: dict


def _call_info(out) -> dict:
    info = {}
    if hasattr(out, "log"):
        info["inserts"] = len(out.log)
        if "passes" in out.parameters:
            info["passes"] = out.parameters["passes"]
    if hasattr(out, "sets_visited"):
        info["sets_visited"] = out.sets_visited
    return info


class Recorder:
    """Collects call timings, query/check counts and (when tracing) spans.

    The runner sets `group`, `execution`, `op_key` and `op_id` before each
    operation.
    """

    def __init__(self):
        self.tracing = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.calls: list[CallRecord] = []
        self.group = ""
        self.execution = 0
        self.op_key = ""
        self.op_id = 0

    def call(self, name, inst, fn, *args, **kwargs):
        """Time one solver or certify call and count its oracle traffic."""
        q0, k0 = inst.f.query_count, inst.c.check_count
        with self.span(name):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            seconds = perf_counter() - t0
        self.calls.append(CallRecord(name, self.op_key, self.execution, self.tracing, t0,
                                     seconds, inst.f.query_count - q0,
                                     inst.c.check_count - k0, _call_info(out)))
        return out

    @contextmanager
    def span(self, name):
        if not self.tracing:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.op_id, self.group, name, parent, perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def _layer(self, name, method):
        stack, spans = self._stack, self.spans

        def wrapped(*args):
            t0 = perf_counter()
            try:
                return method(*args)
            finally:
                agg = spans[stack[-1]].layers.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += perf_counter() - t0

        return wrapped

    def instrument(self, objective, constraint):
        """Wrap the layer methods on these two instance objects."""
        for obj, names in ((objective, LAYER_METHODS["objective"]),
                           (constraint, LAYER_METHODS["constraint"])):
            for name in names:
                setattr(obj, name, self._layer(name, getattr(obj, name)))

    @staticmethod
    def uninstrument(objective, constraint):
        for obj, names in ((objective, LAYER_METHODS["objective"]),
                           (constraint, LAYER_METHODS["constraint"])):
            for name in names:
                obj.__dict__.pop(name, None)

    def write(self, path):
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(index)) + "\n")
