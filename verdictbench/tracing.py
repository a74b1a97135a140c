"""Spans recorded from outside ``repro``, around its public entry points.

:func:`install` wraps one public function per layer (the table
``LAYERS``) in every loaded ``repro`` module that holds it, so calls made
through ``from x import f`` bindings are caught too.  Each call records a
span — name, start, end, parent span, request id — into an in-memory list
that :func:`dump` hands back when the measured process ends.

Spans nest per thread.  Work a thread hands to a ``ThreadPoolExecutor``
(the serve daemon's pipeline pool) keeps its submitter's span as parent
and request id, so a request's spans form one tree.

:func:`self_times` turns the spans into per-layer self time: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List

#: span name → (module, attribute path) of the public entry point wrapped.
LAYERS = {
    "session.check": ("repro.session", "Session.check"),
    "session.disprove": ("repro.session", "QueryHandle.disprove"),
    "sql.compile": ("repro.sql.resolve", "compile_sql"),
    "core.normalize": ("repro.solver.pipeline", "NormalizedQuery.of"),
    "pipeline.check": ("repro.solver.pipeline", "Pipeline.check_normalized"),
    "disprover.search": ("repro.solver.disprover", "disprove"),
    "engine.compile": ("repro.engine.compile", "compile_pair"),
    "analysis.infer": ("repro.analysis.infer", "infer_properties"),
    "optimizer.optimize": ("repro.optimizer.planner", "optimize"),
    "serve.request": ("repro.serve.server", "ReproServer.handle_request_line"),
}

#: [name, start, end, parent index or -1, request id] per finished span.
SPANS: List[list] = []
_local = threading.local()
_lock = threading.Lock()


def current_request(request_id: Any) -> None:
    """Tag the spans this thread opens from now on with ``request_id``."""
    _local.request = request_id


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _wrap(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else getattr(_local, "parent", -1)
        record = [name, 0.0, 0.0, parent, getattr(_local, "request", None)]
        with _lock:
            index = len(SPANS)
            SPANS.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
    return traced


def _request_id_from_line(fn: Callable) -> Callable:
    """Serve requests carry their id in the NDJSON line itself."""
    @functools.wraps(fn)
    def tagged(self, raw: bytes):
        try:
            _local.request = json.loads(raw).get("id")
        except (ValueError, AttributeError):
            _local.request = None
        return fn(self, raw)
    return tagged


def _propagating_submit(submit: Callable) -> Callable:
    @functools.wraps(submit)
    def patched(self, fn, *args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else -1
        request = getattr(_local, "request", None)

        def run(*a, **kw):
            _local.parent, _local.request = parent, request
            try:
                return fn(*a, **kw)
            finally:
                _local.parent = -1
        return submit(self, run, *args, **kwargs)
    return patched


def install() -> None:
    """Wrap every layer's entry point (call after ``import repro`` and
    every lazy import the workload triggers)."""
    for name, (module_name, path) in LAYERS.items():
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(name, raw.__func__)))
            else:
                wrapped = _wrap(name, raw)
                if name == "serve.request":
                    wrapped = _request_id_from_line(wrapped)
                setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = _wrap(name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    pool = concurrent.futures.ThreadPoolExecutor
    pool.submit = _propagating_submit(pool.submit)


def dump() -> List[list]:
    return [list(s) for s in SPANS]


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark's parent process)
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> Dict[str, float]:
    """Layer name → summed self time in seconds.

    A span's self time is its duration minus the union of its children's
    intervals; children of a span run on its thread or on a pool thread
    it submitted to, so the union (not the sum) is subtracted.
    """
    children: Dict[int, List[int]] = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out: Dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name] = out.get(name, 0.0) + max(0.0, end - start - covered)
    return out


def child_time(spans: List[list], child: str, parent: str) -> float:
    """Summed duration of ``child`` spans whose parent is a ``parent``
    span (e.g. pipeline checks made by the optimizer to certify)."""
    return sum(end - start for name, start, end, p, _ in spans
               if name == child and p >= 0 and spans[p][0] == parent)

