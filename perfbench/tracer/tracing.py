"""Spans around the public entry points of each repro layer.

Traced runs only.  :func:`install` rebinds the functions listed in
:data:`TARGETS` (in their defining module and in every loaded ``repro``
module that imported them by name) to wrappers that time each call.
Nothing inside the program changes: the spans sit at the calls *into*
each layer.

A span records its name, the request id, start and end
(``time.perf_counter``, which is CLOCK_MONOTONIC and so comparable
across the server, its workers and the load generator) and its self
time: duration minus the time its traced children took.  The request id
is the ``x-request-id`` header the load generator sends, or the ``rid``
field it adds to /query bodies (which the server ignores, and which
survive the pool's supervisor-to-worker hop); it is read in the
``handle`` wrapper and
travels in a context variable, which the server already copies into its
executor threads.

Calls that happen thousands of times per request (the dominance kernel,
the quartic solvers) are *hot*: instead of one span each they add to a
per-phase aggregate (count, total, self, per-call durations) and to
per-request counts.  A phase is the request id's letter prefix.

Everything stays in memory and is written as one JSON file per process
at drain: at exit, or when a pool worker reads its shutdown frame (its
supervisor kills it right after the reply).
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import json
import os
import statistics
import sys
import time
from array import array

_rid: "contextvars.ContextVar[str]" = contextvars.ContextVar("perfbench_rid", default="")
_frame: "contextvars.ContextVar[list | None]" = contextvars.ContextVar(
    "perfbench_frame", default=None)

#: (module, attribute path, span name).  A dotted attribute is a method.
TARGETS = [
    ("repro.serve.app", "ServeApp.handle", "serve.handle"),
    ("repro.serve.supervisor", "Supervisor.handle", "serve.handle"),
    ("repro.queries.knn", "knn_query", "queries.knn"),
    ("repro.queries.rknn", "rnn_candidates", "queries.rknn"),
    ("repro.queries.dominating", "top_k_dominating", "queries.dominating"),
    ("repro.core.hyperbola", "HyperbolaCriterion.dominates", "core.hyperbola"),
    ("repro.core.batch", "batch_evaluate", "core.batch"),
    ("repro.geometry.quartic", "solve_quartic_real", "geometry.quartic"),
    ("repro.geometry.quartic", "solve_quartic_real_closed", "geometry.quartic"),
    ("repro.geometry.quartic", "solve_quartic_real_batch", "geometry.quartic"),
    ("repro.robust.ladder", "decide", "robust.decide"),
    ("repro.index.snapshot", "load", "index.snapshot_load"),
    ("repro.stream.engine", "StreamingIndex.open", "stream.open"),
    ("repro.stream.engine", "StreamingIndex.insert", "stream.mutate"),
    ("repro.stream.engine", "StreamingIndex.delete", "stream.mutate"),
    ("repro.stream.engine", "StreamingIndex.query_knn", "stream.query_knn"),
    ("repro.stream.wal", "WriteAheadLog.append", "stream.wal_append"),
]
HOT = {"core.hyperbola", "core.batch", "geometry.quartic", "robust.decide"}


def _phase(rid: str) -> str:
    return rid.rstrip("0123456789")


class Recorder:
    """The process's spans, hot aggregates, per-request counts and obs marks."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.hot: "dict[tuple[str, str], list]" = {}
        self.per_rid: "dict[str, dict[str, float]]" = {}
        self.obs_marks: "dict[str, dict]" = {}
        self.overlay_sizes: "dict[str, list[int]]" = {}
        self.flushed = False

    def count(self, rid: str, name: str, amount: float = 1) -> None:
        if rid:
            counts = self.per_rid.setdefault(rid, {})
            counts[name] = counts.get(name, 0) + amount

    def record(self, name: str, rid: str, start: float, end: float,
               self_s: float) -> None:
        if name in HOT:
            entry = self.hot.get((name, _phase(rid)))
            if entry is None:
                entry = self.hot[(name, _phase(rid))] = [0, 0.0, 0.0, array("d")]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
            entry[3].append(end - start)
            self.count(rid, name)
        else:
            self.spans.append([name, rid, start, end, self_s])

    def mark(self, rid: str) -> None:
        """Snapshot the program's obs registry when a new phase begins."""
        phase = _phase(rid)
        if phase not in self.obs_marks:
            from repro import obs

            self.obs_marks[phase] = obs.collect()

    def flush(self) -> None:
        directory = os.environ.get("PERFBENCH_TRACE_DIR")
        if self.flushed or not directory:
            return
        self.flushed = True
        from repro import obs

        hot = {}
        for (name, phase), (count, total, self_s, durations) in self.hot.items():
            hot.setdefault(name, {})[phase] = {
                "count": count, "total_s": total, "self_s": self_s,
                "median_s": statistics.median(durations)}
        document = {
            "pid": os.getpid(), "argv": sys.argv, "spans": self.spans,
            "hot": hot, "per_rid": self.per_rid,
            "obs_marks": self.obs_marks, "obs_end": obs.collect(),
            "overlay_sizes": self.overlay_sizes,
        }
        path = os.path.join(directory, f"trace-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(document, handle)
        os.replace(path + ".tmp", path)


RECORDER = Recorder()


def _after_knn(rid: str, args: tuple, result: object) -> None:
    for field, name in (("dominance_checks", "knn.dominance_checks"),
                        ("nodes_visited", "index.node_accesses"),
                        ("entries_considered", "knn.entries_considered"),
                        ("pruned_case3", "knn.pruned_case3")):
        RECORDER.count(rid, name, getattr(result, field, 0))
    RECORDER.count(rid, "knn.answer_size", len(getattr(result, "keys", ())))


def _after_batch(rid: str, args: tuple, result: object) -> None:
    if args and args[0] == "hyperbola":
        RECORDER.count(rid, "batch.hyperbola.rows", len(args[1]))


def _after_stream_query(rid: str, args: tuple, result: object) -> None:
    RECORDER.overlay_sizes.setdefault(_phase(rid), []).append(len(args[0].overlay))


AFTER = {"queries.knn": _after_knn, "core.batch": _after_batch,
         "stream.query_knn": _after_stream_query}


def _wrap(name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _frame.get()
        frame = [0.0]
        token = _frame.set(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _frame.reset(token)
            if parent is not None:
                parent[0] += end - start
            RECORDER.record(name, _rid.get(), start, end, end - start - frame[0])
        if after is not None:
            after(_rid.get(), args, result)
        return result

    return wrapper


def _request_id(request) -> str:
    """The ``x-request-id`` header, else the body's ``rid`` field."""
    rid = request.header("x-request-id")
    if rid:
        return rid
    try:
        body = json.loads(request.body or b"{}")
    except ValueError:
        return ""
    rid = body.get("rid", "") if isinstance(body, dict) else ""
    return rid if isinstance(rid, str) else ""


def _wrap_handle(name: str, fn):
    @functools.wraps(fn)
    async def wrapper(self, request):
        rid = _request_id(request)
        if not rid:
            return await fn(self, request)
        RECORDER.mark(rid)
        rid_token = _rid.set(rid)
        frame = [0.0]
        token = _frame.set(frame)
        start = time.perf_counter()
        try:
            return await fn(self, request)
        finally:
            end = time.perf_counter()
            _frame.reset(token)
            _rid.reset(rid_token)
            RECORDER.record(name, rid, start, end, end - start - frame[0])

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference at *replacement*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install() -> None:
    """Wrap every target once (idempotent), and flush at exit."""
    if getattr(install, "done", False):
        return
    install.done = True
    import importlib

    # Import every module that binds a target by name before rebinding.
    for module in ("repro.serve.cli", "repro.serve.worker", "repro.cli"):
        importlib.import_module(module)
    for module_name, path, name in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(owner, class_name)
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(_wrap(name, raw.__func__)))
            elif inspect.iscoroutinefunction(raw):
                setattr(owner, attribute, _wrap_handle(name, raw))
            else:
                setattr(owner, attribute, _wrap(name, getattr(owner, attribute)))
        else:
            original = getattr(owner, path)
            _rebind(original, _wrap(name, original))
    _wrap_frame_reader()
    atexit.register(RECORDER.flush)


def _wrap_frame_reader() -> None:
    """Flush when a pool worker reads its shutdown frame.

    Patched in ``repro.serve.protocol`` (and every module that imported
    it by name) because the worker runs as ``__main__`` and imports the
    reader only after this module has run.
    """
    protocol = sys.modules["repro.serve.protocol"]
    read_frame = protocol.read_frame

    def traced_read_frame(stream):
        frame = read_frame(stream)
        if isinstance(frame, dict) and frame.get("op") == "shutdown":
            RECORDER.flush()
        return frame

    _rebind(read_frame, traced_read_frame)
