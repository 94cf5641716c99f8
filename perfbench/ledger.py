"""The traced run's per-layer ledger: spans around calls into each layer.

:func:`install` wraps public entry points of the ``repro`` layers on the
solve path with timing shims that record into a :class:`Recorder`;
:func:`Patches.undo` restores the originals, so an untraced request runs
the program unmodified.  Every span carries a name, start, end, parent
and request id; spans are kept in memory and written to one JSON file
at exit.  Per-name aggregates (calls, inclusive and self seconds) are
updated as each span closes, so the ledger stays exact even when the
retained span list is capped.

A span's self time is its duration minus the time its child spans
cover.  Stage threads of the ``threads`` backend open their spans with
an empty stack; those spans are parented on the enclosing
``threads.run_pass`` span, whose width is its stage count, so its self
time is counted in stage-thread seconds (stage count x pass wall, minus
the stage threads' own spans).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from floors import BYTES_PER_LUP

#: Spans retained for the JSON file; aggregates cover every span.
MAX_SPANS = 100_000

#: The benchmark's own per-request span.
REQUEST = "request"


class _Frame:
    __slots__ = ("sid", "name", "child_s", "in_stage")

    def __init__(self, sid: int, name: str, in_stage: bool) -> None:
        self.sid = sid
        self.name = name
        self.child_s = 0.0
        self.in_stage = in_stage


class _ThreadLedger:
    """One thread's open spans and totals; no other thread writes to it."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.req: Optional[int] = None
        #: name -> [calls, inclusive s, self s, cells]
        self.agg: Dict[str, List[float]] = {}
        #: name -> self s of spans that ran inside stage threads
        self.stage_self: Dict[str, float] = {}
        #: ambient frame id -> seconds of this thread's spans under it
        self.ambient_child: Dict[int, float] = {}
        #: seconds of spans directly under a request span, or at the
        #: top of a thread (the serve worker runs jobs there)
        self.covered_s = 0.0
        self.spans: List[tuple] = []
        self.dropped = 0


class Recorder:
    """In-memory span store with per-name aggregates.

    Each thread records into its own :class:`_ThreadLedger`, so the
    stage threads of a traced solve never contend on a lock of ours;
    :meth:`totals` merges the ledgers once the threads are done.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._ledgers: List[_ThreadLedger] = []
        self._ids = itertools.count(1)
        #: Open ``threads.run_pass`` frame: parent of stage-thread spans.
        self.ambient: Optional[_Frame] = None
        #: Request id for threads that set none of their own.
        self.request: Optional[int] = None

    def _ledger(self) -> _ThreadLedger:
        led = getattr(self._local, "ledger", None)
        if led is None:
            led = self._local.ledger = _ThreadLedger()
            self._ledgers.append(led)  # list.append is atomic
        return led

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             width: int = 1, cells: int = 0) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if os.getpid() != self.pid:
            # A forked rank process: its spans could never reach us.
            return fn(*args, **kwargs)
        led = self._ledger()
        stack = led.stack
        parent = stack[-1] if stack else self.ambient
        in_stage = parent is not None and (not stack or parent.in_stage)
        frame = _Frame(next(self._ids), name, in_stage)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                parent.child_s += dur
            elif parent is not None:
                led.ambient_child[parent.sid] = (
                    led.ambient_child.get(parent.sid, 0.0) + dur)
            own = dur * width - frame.child_s
            if name != REQUEST and (parent is None or parent.name == REQUEST):
                led.covered_s += dur
            a = led.agg.get(name)
            if a is None:
                a = led.agg[name] = [0, 0.0, 0.0, 0]
            a[0] += 1
            a[1] += dur
            a[2] += own
            a[3] += cells
            if in_stage:
                led.stage_self[name] = led.stage_self.get(name, 0.0) + own
            if len(led.spans) < MAX_SPANS:
                led.spans.append((frame.sid, name, t0, t1,
                                  parent.sid if parent else None,
                                  led.req if led.req is not None
                                  else self.request,
                                  threading.get_ident()))
            else:
                led.dropped += 1

    def adopt_ambient_children(self, frame: _Frame) -> None:
        """Charge the finished stage threads' spans to ``frame``."""
        for led in list(self._ledgers):
            frame.child_s += led.ambient_child.pop(frame.sid, 0.0)

    def current(self) -> _Frame:
        return self._ledger().stack[-1]

    def request_span(self, req: int, fn: Callable, *args: Any) -> Any:
        """Run one benchmark request under a ``request`` span with id ``req``."""
        led = self._ledger()
        led.req = req
        try:
            return self.call(REQUEST, fn, args, {})
        finally:
            led.req = None

    def totals(self) -> "Totals":
        """Merged aggregates of every thread (call once threads are done)."""
        t = Totals()
        for led in list(self._ledgers):
            for name, a in led.agg.items():
                b = t.agg.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    b[i] += a[i]
            for name, v in led.stage_self.items():
                t.stage_self[name] = t.stage_self.get(name, 0.0) + v
            t.covered_s += led.covered_s
        return t

    def write(self, path: Path) -> Tuple[int, int]:
        """Write spans and aggregates as one JSON file; (kept, dropped)."""
        spans = sorted((s for led in self._ledgers for s in led.spans),
                       key=lambda s: s[2])
        dropped = sum(led.dropped for led in self._ledgers)
        dropped += max(len(spans) - MAX_SPANS, 0)
        spans = spans[:MAX_SPANS]
        doc = {
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "request": s[5], "thread": s[6]}
                      for s in spans],
            "dropped_spans": dropped,
            "aggregates": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2],
                               "cells": v[3]}
                           for k, v in self.totals().agg.items()},
        }
        path.write_text(json.dumps(doc))
        return len(spans), dropped


class Totals:
    """Aggregates merged over threads."""

    def __init__(self) -> None:
        self.agg: Dict[str, List[float]] = {}
        self.stage_self: Dict[str, float] = {}
        self.covered_s = 0.0

    def _get(self, name: str, i: int) -> float:
        a = self.agg.get(name)
        return a[i] if a is not None else 0.0

    def calls(self, name: str) -> float:
        return self._get(name, 0)

    def incl(self, name: str) -> float:
        return self._get(name, 1)

    def self_s(self, name: str) -> float:
        return self._get(name, 2)

    def cells(self, name: str) -> float:
        return self._get(name, 3)


class Patches:
    """Attribute replacements on modules and classes, undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []
        self._lock = threading.Lock()
        self._seen: set = set()

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        own = attr in vars(owner)
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig, own))

    def wrap_once(self, cls: type, attrs: Dict[str, Callable]) -> None:
        """Wrap methods of ``cls`` the first time an instance shows up."""
        with self._lock:
            if cls in self._seen:
                return
            self._seen.add(cls)
            for attr, make in attrs.items():
                if hasattr(cls, attr):
                    self.wrap(cls, attr, make)

    def undo(self) -> None:
        with self._lock:
            for owner, attr, orig, own in reversed(self._undo):
                if own:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)
            self._undo.clear()
            self._seen.clear()


def _span(rec: Recorder, name: str) -> Callable[[Callable], Callable]:
    def make(orig: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            return rec.call(name, orig, args, kwargs)
        return timed
    return make


#: Storage methods timed on whatever class ``make_storage`` returns.
STORAGE_METHODS = ("read", "gather", "write", "write_view", "commit_write",
                   "extract")


def install(rec: Recorder) -> Patches:
    """Wrap the solve path's public entry points; returns the undo handle."""
    import repro
    import repro.analysis
    import repro.api
    import repro.core.executor as core_executor
    import repro.core.sync as core_sync
    import repro.dist.solver as dist_solver
    import repro.serve.cache as serve_cache
    import repro.serve.job as serve_job
    import repro.serve.pool as serve_pool
    import repro.threads.executor as threads_executor

    p = Patches()
    solve = _span(rec, "api.solve")(repro.api.solve)
    p.wrap(repro.api, "solve", lambda orig: solve)
    p.wrap(repro, "solve", lambda orig: solve)
    p.wrap(repro.analysis, "assert_legal", _span(rec, "analysis.assert_legal"))

    p.wrap(core_executor.PipelineExecutor, "run", _span(rec, "core.run"))
    p.wrap(core_executor.PipelineExecutor, "run_pass",
           _span(rec, "core.run_pass"))

    def threaded_pass(orig: Callable) -> Callable:
        def timed(ex: Any, *args: Any, **kwargs: Any) -> Any:
            def body() -> Any:
                frame = rec.current()
                outer, rec.ambient = rec.ambient, frame
                try:
                    return orig(ex, *args, **kwargs)
                finally:
                    rec.ambient = outer
                    rec.adopt_ambient_children(frame)
            return rec.call("threads.run_pass", body, (), {},
                            width=ex.config.n_stages)
        return timed

    p.wrap(threads_executor.ThreadedPipelineExecutor, "run_pass",
           threaded_pass)
    p.wrap(core_sync.CounterBoard, "wait_ready",
           _span(rec, "sync.wait_ready"))

    storage_attrs = {m: _span(rec, f"storage.{m}") for m in STORAGE_METHODS}

    def make_storage(orig: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            storage = rec.call("storage.init", orig, args, kwargs)
            p.wrap_once(type(storage), storage_attrs)
            return storage
        return timed

    def apply(orig: Callable) -> Callable:
        def timed(engine: Any, stencil: Any, storage: Any, region: Any,
                  level: int) -> Any:
            return rec.call("engine.apply", orig,
                            (engine, stencil, storage, region, level), {},
                            cells=region.ncells)
        return timed

    def get_engine(orig: Callable) -> Callable:
        def resolved(*args: Any, **kwargs: Any) -> Any:
            engine = orig(*args, **kwargs)
            p.wrap_once(type(engine), {"apply": apply})
            return engine
        return resolved

    p.wrap(core_executor, "make_storage", make_storage)
    p.wrap(core_executor, "get_engine", get_engine)

    session = dist_solver.ProcSolverSession
    p.wrap(session, "__init__", _span(rec, "dist.setup"))
    p.wrap(session, "solve_pipelined", _span(rec, "dist.job"))
    p.wrap(session, "close", _span(rec, "dist.teardown"))

    p.wrap(serve_job.SolveJob, "content_key", _span(rec, "serve.key"))
    p.wrap(serve_cache.ResultCache, "get", _span(rec, "serve.cache.get"))
    p.wrap(serve_cache.ResultCache, "put", _span(rec, "serve.cache.put"))
    p.wrap(serve_pool.SessionPool, "acquire", _span(rec, "serve.pool.acquire"))
    return p


def layer_metrics(rec: Recorder, requests: int) -> Dict[str, float]:
    """The span-derived per-layer metrics, each per traced request."""
    n = max(requests, 1)
    t = rec.totals()
    apply_s = t.incl("engine.apply")
    cells = t.cells("engine.apply")
    # Self times telescope: the stage threads' spans plus the pass's own
    # self time add up to stage count x pass wall.
    stage_s = t.self_s("threads.run_pass") + sum(t.stage_self.values())
    storage_stage = sum(v for k, v in t.stage_self.items()
                        if k.startswith("storage."))

    def share(x: float) -> float:
        return x / stage_s if stage_s > 0 else 0.0

    return {
        "api.self_s": t.self_s("api.solve") / n,
        "analysis.certify_s": t.incl("analysis.assert_legal") / n,
        "analysis.calls": t.calls("analysis.assert_legal") / n,
        "core.self_s": (t.self_s("core.run") + t.self_s("core.run_pass")
                        + t.self_s("threads.run_pass")) / n,
        "storage.init_s": t.incl("storage.init") / n,
        "storage.gather_s": (t.self_s("storage.read")
                             + t.self_s("storage.gather")) / n,
        "storage.gather_calls": (t.calls("storage.read")
                                 + t.calls("storage.gather")) / n,
        "storage.write_s": (t.self_s("storage.write")
                            + t.self_s("storage.write_view")
                            + t.self_s("storage.commit_write")) / n,
        "storage.extract_s": t.self_s("storage.extract") / n,
        "engine.apply_s": apply_s / n,
        "engine.self_s": t.self_s("engine.apply") / n,
        "engine.calls": t.calls("engine.apply") / n,
        "engine.cells": cells / n,
        "engine.gbs_computed": (cells * BYTES_PER_LUP / apply_s / 1e9
                                if apply_s > 0 else 0.0),
        "sync.wait_s": t.incl("sync.wait_ready") / n,
        "sync.waits": t.calls("sync.wait_ready") / n,
        "threads.stage_s": stage_s / n,
        "threads.engine_share": share(t.stage_self.get("engine.apply", 0.0)),
        "threads.storage_share": share(storage_stage),
        "threads.sync_share": share(t.stage_self.get("sync.wait_ready", 0.0)),
        "threads.core_share": share(t.self_s("threads.run_pass")),
        "dist.setup_s": t.incl("dist.setup") / n,
        "dist.job_s": t.incl("dist.job") / n,
        "dist.teardown_s": t.incl("dist.teardown") / n,
        "serve.key_s": t.incl("serve.key") / n,
        "serve.cache.get_s": t.incl("serve.cache.get") / n,
        "serve.cache.put_s": t.incl("serve.cache.put") / n,
        "serve.pool.acquire_s": t.incl("serve.pool.acquire") / n,
        "serve.queue_wait_s": max(t.incl(REQUEST) - t.covered_s, 0.0) / n,
    }
