"""Spans around the public entry points of each ``repro`` layer.

The benchmark observes the program from outside: :func:`install` swaps
each entry point for a thin wrapper that records one span per call and
:func:`restore` puts the originals back.  A span has a name, a start, an
end, the span that was open when it started (its parent) and the id of
the request it served.  Spans live in flat typed arrays, so recording
them adds no objects for the cyclic garbage collector to traverse, and
are written out as a Chrome/Perfetto trace when the run ends.

A layer's self time is its spans' time minus the part of each span that
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Dict, List, Tuple

_CURRENT = contextvars.ContextVar("e2ebench_span", default=-1)
_REQUEST = contextvars.ContextVar("e2ebench_request", default=0)

#: Entry points wrapped in the traced run: ``(span name, module, qualified
#: name)``.  The layer of a span is its name up to the last dot.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("core.closure.close", "repro.core.closure", "close_policy"),
    ("core.closure.extend", "repro.core.closure", "extend_closure"),
    ("sql.parse", "repro.sql.parser", "parse"),
    ("sql.parse_query", "repro.sql.binder", "parse_query"),
    ("sql.bind_plan", "repro.sql.binder", "bind_plan"),
    ("algebra.builder.build", "repro.algebra.builder", "build_plan"),
    ("core.planner.plan", "repro.core.planner", "SafePlanner.plan"),
    ("core.safety.verify", "repro.core.safety", "verify_assignment"),
    ("core.plancache.lookup", "repro.core.plancache", "PlanCache.lookup"),
    ("distributed.pipeline.run", "repro.distributed.pipeline", "QueryPipeline.run"),
    ("engine.executor.run", "repro.engine.executor", "DistributedExecutor.run"),
    ("engine.operators.join_open", "repro.engine.operators", "HashJoinOperator.open"),
    ("engine.operators.join_next", "repro.engine.operators", "HashJoinOperator.next_batch"),
    ("engine.operators.materialize", "repro.engine.operators", "materialize"),
    ("engine.data.natural_join", "repro.engine.data", "ColumnarTable.natural_join"),
    ("service.submit", "repro.service.service", "QueryService.submit"),
    ("service.process", "repro.service.service", "QueryService._process"),
    ("sharding.execute", "repro.sharding.executor", "ShardedExecutor.execute"),
    ("sharding.certify", "repro.sharding.checker", "ParallelCorrectnessChecker.certify"),
    ("sharding.split", "repro.sharding.scheme", "PartitionScheme.split"),
    ("sharding.merge", "repro.sharding.scheme", "merge_shards"),
)


def layer_of(span_name: str) -> str:
    """``core.planner.plan`` -> ``core.planner``."""
    return span_name.rsplit(".", 1)[0]


class SpanRecorder:
    """In-memory span store (typed arrays, one slot per span)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.request_of = array("l")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        #: request id -> index of its first root span (the client side)
        self.root_of: Dict[int, int] = {}
        #: seconds each service request waited between submit and dequeue
        self.queue_waits = array("d")
        #: added to the workload's request ids, so that windows traced one
        #: after another (each numbering its requests from 1) stay apart
        self.request_base = 0
        self._last_request = 0

    def request(self, rid: int) -> "request_scope":
        """Scope for the calls of request ``rid`` of the current window."""
        self._last_request = max(self._last_request, self.request_base + rid)
        return request_scope(self.request_base + rid)

    def next_window(self) -> None:
        """Start numbering requests after every id used so far."""
        self.request_base = self._last_request

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, name_id: int, parent: int = -2):
        if parent == -2:
            parent = _CURRENT.get()
        index = len(self.start)
        request = _REQUEST.get()
        self.name.append(name_id)
        self.parent.append(parent)
        self.request_of.append(request)
        self.failed.append(0)
        self.end.append(0.0)
        if parent < 0 and request not in self.root_of:
            self.root_of[request] = index
        token = _CURRENT.set(index)
        self.start.append(time.perf_counter())
        return index, token

    def finish(self, index: int, token, failed: bool) -> None:
        self.end[index] = time.perf_counter()
        if failed:
            self.failed[index] = 1
        _CURRENT.reset(token)

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    # Analysis (after the run)
    # ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children's."""
        children: Dict[int, List[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = []
        for index in range(len(self.start)):
            lo, hi = self.start[index], self.end[index]
            covered = 0.0
            cursor = lo
            kids = children.get(index, ())
            for child in sorted(kids, key=lambda c: self.start[c]):
                a = max(self.start[child], cursor)
                b = min(self.end[child], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            result.append((hi - lo) - covered)
        return result

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, failed calls, total and self seconds."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for index in range(len(self.start)):
            name = self.names[self.name[index]]
            row = out.setdefault(
                name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["failed"] += self.failed[index]
            row["total_s"] += self.end[index] - self.start[index]
            row["self_s"] += selfs[index]
        return out

    def total_under(self, span_name: str, ancestor_name: str) -> float:
        """Seconds spent in ``span_name`` spans nested (at any depth)
        under an ``ancestor_name`` span."""
        total = 0.0
        for index in range(len(self.start)):
            if self.names[self.name[index]] != span_name:
                continue
            parent = self.parent[index]
            while parent >= 0:
                if self.names[self.name[parent]] == ancestor_name:
                    total += self.end[index] - self.start[index]
                    break
                parent = self.parent[parent]
        return total

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON, one lane per request."""
        origin = min(self.start) if len(self.start) else 0.0
        events = []
        for index in range(len(self.start)):
            name = self.names[self.name[index]]
            events.append(
                {
                    "name": name,
                    "cat": layer_of(name),
                    "ph": "X",
                    "ts": round((self.start[index] - origin) * 1e6, 3),
                    "dur": round((self.end[index] - self.start[index]) * 1e6, 3),
                    "pid": 1,
                    "tid": self.request_of[index],
                    "args": {
                        "span": index,
                        "parent": self.parent[index],
                        "request": self.request_of[index],
                        "failed": self.failed[index],
                    },
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class request_scope:
    """Marks the calls made inside the ``with`` block as one request."""

    __slots__ = ("_rid", "_token")

    def __init__(self, rid: int) -> None:
        self._rid = rid

    def __enter__(self):
        self._token = _REQUEST.set(self._rid)
        return self

    def __exit__(self, *exc) -> None:
        _REQUEST.reset(self._token)


def _sync_wrapper(recorder: SpanRecorder, name_id: int, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index, token = recorder.begin(name_id)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            recorder.finish(index, token, failed)

    return wrapper


def _async_wrapper(recorder: SpanRecorder, name_id: int, fn):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        index, token = recorder.begin(name_id)
        failed = True
        try:
            result = await fn(*args, **kwargs)
            failed = False
            return result
        finally:
            recorder.finish(index, token, failed)

    return wrapper


def _dequeue_wrapper(recorder: SpanRecorder, name_id: int, fn):
    """``QueryService._process(item)``: the worker side of a request.

    Worker tasks are created at service start, so nothing of the
    submitting client's context reaches them.  The item's service
    request id joins the two sides (the clients number their submissions
    in submit order, which is the service's admission order), and the
    item's submit timestamp gives the queue wait; the service must run
    on ``time.perf_counter``.
    """

    @functools.wraps(fn)
    async def wrapper(service, item, *args, **kwargs):
        rid = recorder.request_base + item.request_id
        request_token = _REQUEST.set(rid)
        index, token = recorder.begin(name_id, parent=recorder.root_of.get(rid, -1))
        recorder.queue_waits.append(recorder.start[index] - item.submitted_at)
        failed = True
        try:
            result = await fn(service, item, *args, **kwargs)
            failed = False
            return result
        finally:
            recorder.finish(index, token, failed)
            _REQUEST.reset(request_token)

    return wrapper


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: SpanRecorder):
    """Wrap every entry point; returns the undo list for :func:`restore`.

    A module-level function is rebound wherever a loaded ``repro``
    module holds the original object under any name (``from x import f``
    copies the reference, so wrapping only the defining module would
    miss those callers).  Methods are replaced on their defining class.
    """
    undo = []
    for span_name, module_name, qualname in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute]
        name_id = recorder.name_id(span_name)
        if span_name == "service.process":
            wrapper = _dequeue_wrapper(recorder, name_id, original)
        elif inspect.iscoroutinefunction(original):
            wrapper = _async_wrapper(recorder, name_id, original)
        else:
            wrapper = _sync_wrapper(recorder, name_id, original)
        if inspect.isclass(owner):
            setattr(owner, attribute, wrapper)
            undo.append((owner, attribute, original))
            continue
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo


def restore(undo) -> None:
    """Put back every original :func:`install` replaced."""
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


class GcMonitor:
    """Collector pauses and gen2 passes, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
