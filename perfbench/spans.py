"""In-memory span tracing around the program's public functions.

Nothing under ``src/`` changes: :func:`install` replaces public
functions and methods with wrappers, in the modules that define them
and in the modules that imported them by name.  Each call records a
span -- name, start, end, parent -- in a per-thread list; generators
record one span per resumption, so a streamed sweep's time lands on
whichever layer was running.  Spans stay in memory until the run ends,
then :func:`summarize` folds them into per-layer self times: a span's
duration minus the part its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time

clock = time.perf_counter


class Tracer:
    """Per-thread span lists of ``[name, start, end, parent_index]``."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[list] = []
        self._lock = threading.Lock()
        self.counts: list[tuple[str, float, float]] = []  # (name, time, amount)
        self.marks: dict[str, list[float]] = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (spans, open-span stack)
            with self._lock:
                self._threads.append(state[0])
        return state

    @contextlib.contextmanager
    def paused(self):
        """Record nothing from this thread inside the block."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def call(self, name: str, fn, args, kwargs):
        if getattr(self._local, "paused", False):
            return fn(*args, **kwargs)
        spans, stack = self._state()
        span = [name, clock(), None, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts.append((name, clock(), amount))  # list.append is atomic

    def mark(self, name: str) -> None:
        with self._lock:
            self.marks.setdefault(name, []).append(clock())

    def snapshot(self) -> dict:
        """Everything recorded so far, JSON-able (``perf_counter`` times
        are system-wide on Linux, so processes share one time axis)."""
        with self._lock:
            return {
                "threads": [list(spans) for spans in self._threads],
                "counts": list(self.counts),
                "marks": {name: list(times) for name, times in self.marks.items()},
            }


def summarize(snapshot: dict, window: tuple[float, float] | None = None) -> dict:
    """Fold spans into per-name ``calls``, ``total_s`` and ``self_s``.

    Only spans and counts that start inside ``window`` count, when one
    is given.  ``roots`` holds, per thread with spans in the window, the
    time from its first span's start to its last span's end, and how
    much of that its top-level spans cover -- the residual
    ``other.self_ms`` is the rest.
    """

    def inside(t: float) -> bool:
        return window is None or window[0] <= t <= window[1]

    layers: dict[str, dict] = {}
    roots = []
    counts: dict[str, float] = {}
    for name, t, amount in snapshot["counts"]:
        if inside(t):
            counts[name] = counts.get(name, 0) + amount
    for spans in snapshot["threads"]:
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if end is not None and parent >= 0:
                child_time[parent] += end - start
        covered = 0.0
        first = last = None
        for index, (name, start, end, parent) in enumerate(spans):
            if end is None:
                continue
            if not inside(start):
                continue
            layer = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - child_time[index]
            if parent < 0:
                covered += end - start
                first = start if first is None else first
                last = end
        if covered:
            roots.append((last - first, covered))
    return {
        "layers": layers,
        "roots": roots,
        "counts": counts,
        "marks": snapshot["marks"],
    }


def _wrap(tracer: Tracer, name: str, fn, mark: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return tracer.call(name, fn, args, kwargs)
        finally:
            if mark:
                tracer.mark(name)

    return wrapper


def _resumptions(tracer: Tracer, name: str, inner):
    """Re-yield ``inner``, one span per resumption (and one for close)."""
    sentinel = object()
    try:
        while True:
            item = tracer.call(name, next, (inner, sentinel), {})
            if item is sentinel:
                return
            yield item
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            tracer.call(name, close, (), {})


def _wrap_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _resumptions(tracer, name, iter(fn(*args, **kwargs)))

    return wrapper


def _wrap_appender(tracer: Tracer, fn):
    """``store.appender()``: span the open, the close and every persist."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        @contextlib.contextmanager
        def traced():
            manager = fn(*args, **kwargs)
            write = tracer.call("store.append", manager.__enter__, (), {})
            try:
                yield _wrap(tracer, "store.append", _counted(tracer, write))
            except BaseException as error:
                exc = (type(error), error, error.__traceback__)
                if not tracer.call("store.append", manager.__exit__, exc, {}):
                    raise
            else:
                tracer.call("store.append", manager.__exit__, (None, None, None), {})

        return traced()

    return wrapper


def _counted(tracer: Tracer, write):
    def persist(record):
        tracer.count("store.appends")
        return write(record)

    return persist


def _wrap_kernel(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(lowered, hardware, *args, **kwargs):
        hardware = list(hardware)
        tracer.count("lowered.kernel_points", len(hardware))
        return tracer.call("lowered.kernel", fn, (lowered, hardware) + args, kwargs)

    return wrapper


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` (a module function or a class's own method)."""
    if isinstance(owner, type):
        current = owner.__dict__.get(attr)
    else:
        current = getattr(owner, attr, None)
    if current is None:
        return
    if isinstance(current, classmethod):
        setattr(owner, attr, classmethod(make(current.__func__)))
    else:
        setattr(owner, attr, make(current))


def install(tracer: Tracer, server: bool = False) -> None:
    """Wrap every layer's public entry points in this process."""
    import repro.dse as dse_pkg
    from repro.dse import (
        engine,
        evaluate,
        partitioned,
        queries,
        spec,
        sqlite_store,
        store,
    )
    from repro.serve import client
    from repro.sim import lowered

    def plain(name, mark=False):
        return lambda fn: _wrap(tracer, name, fn, mark)

    def gen(name):
        return lambda fn: _wrap_generator(tracer, name, fn)

    _patch(spec.SweepSpec, "from_dict", plain("spec.build"))
    _patch(spec.SweepSpec, "grid", plain("spec.build"))
    _patch(spec.SweepPoint, "config_hash", plain("spec.hash"))
    for module in (lowered, evaluate):
        _patch(module, "lower_network", plain("lowered.lower"))
        _patch(module, "evaluate_lowered_many", lambda fn: _wrap_kernel(tracer, fn))
    for module in (evaluate, engine, dse_pkg):
        _patch(module, "evaluate_points", plain("evaluate.points"))
        _patch(module, "evaluate_point", plain("evaluate.scalar"))
        _patch(module, "iter_sweep", gen("engine.iter_sweep"))
        _patch(module, "run_sweep", plain("engine.run_sweep"))
    for cls in (
        store.ResultStoreBase,
        store.ResultStore,
        sqlite_store.SQLiteStore,
        partitioned.PartitionedStore,
    ):
        _patch(cls, "records_for", plain("store.records_for"))
        _patch(cls, "iter_page", gen("store.page"))
        _patch(cls, "append", plain("store.append"))
        _patch(cls, "appender", lambda fn: _wrap_appender(tracer, fn))
    for module in (queries, dse_pkg):
        _patch(module, "run_query", plain("queries.run"))
    _patch(client.ServeClient, "query", plain("client.query"))
    _patch(client.ServeClient, "submit_job", plain("client.submit_job", mark=True))
    _patch(client.ServeClient, "stream_job", gen("client.stream_job"))
    if server:
        _install_server(tracer, plain, gen)


def _install_server(tracer: Tracer, plain, gen) -> None:
    from http.server import BaseHTTPRequestHandler

    from repro.serve import fleet, server

    _patch(server, "iter_sweep", gen("engine.iter_sweep"))
    _patch(server, "run_query", plain("queries.run"))
    _patch(server.SweepService, "submit", plain("server.submit"))
    _patch(server.SweepService, "job_record_stream", gen("server.stream"))
    _patch(server.SweepService, "record_page_stream", gen("server.page"))
    _patch(server.SweepService, "query", plain("server.query"))
    _patch(server.SweepService, "ingest", plain("server.ingest"))
    _patch(server.SweepService, "stats", plain("server.stats"))
    _patch(BaseHTTPRequestHandler, "handle_one_request", plain("server.handler"))
    _patch(fleet.Fleet, "lease", lambda fn: _wrap_lease(tracer, fn))


def _wrap_lease(tracer: Tracer, fn):
    """Mark each fleet worker's first granted lease (``proc.start_s``)."""
    leased: set[str] = set()

    @functools.wraps(fn)
    def wrapper(self, worker_id, *args, **kwargs):
        reply = tracer.call("fleet.lease", fn, (self, worker_id) + args, kwargs)
        if isinstance(reply, dict) and reply.get("lease") and worker_id not in leased:
            leased.add(worker_id)
            tracer.mark("fleet.first_lease")
        return reply

    return wrapper
