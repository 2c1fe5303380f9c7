"""Spans around the calls into each layer, recorded from outside.

Nothing in ``src/`` is edited: the workloads wrap the public functions
of each layer with :func:`traced_sync`/:func:`traced_async`, and
:class:`Patches` rebinds every name that refers to them —
``write_frame`` is bound by name in ``repro.cluster.node``,
``transport`` and ``loadgen``, so patching only ``repro.cluster.rpc``
would miss every call.  Patches are undone when the traced phase ends.

Each span records its name, start, end, parent span and the request id
(``rid``) it serves; a span without an explicit rid inherits its
parent's.  Coroutine spans also record *busy* time — the time the
coroutine actually ran on the event loop, measured per step — and the
busy time of spans nested inside those steps, so a layer's self time
is its busy time minus its nested children's.  A wall-clock interval
alone would not do: an awaiting coroutine's interval covers whatever
else the loop ran meanwhile.

Spans live in flat arrays in memory and are written out, gzipped JSON
lines, when the run ends.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import gzip
import json
import sys
import time
from array import array
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: The span whose code is running in the current context, or -1.
_CURRENT: ContextVar[int] = ContextVar("perfbench_span", default=-1)


class Tracer:
    """An in-memory span store plus counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rid = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.child_busy = array("d")
        #: Spans whose code is executing right now, innermost last.
        self._running: List[int] = []
        #: Bytes of every frame encoded while tracing, in order.
        self.frames: List[bytes] = []
        self.wal_bytes = 0

    # -- recording ---------------------------------------------------------

    def open(self, name: str, rid: Optional[int]) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = _CURRENT.get()
        if rid is None:
            rid = self.rid[parent] if parent >= 0 else 0
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(parent)
        self.rid.append(int(rid))
        self.start.append(_now())
        self.end.append(0.0)
        self.busy.append(0.0)
        self.child_busy.append(0.0)
        return sid

    def enter(self, sid: int) -> float:
        self._running.append(sid)
        return _now()

    def leave(self, sid: int, entered: float) -> float:
        left = _now()
        self._running.pop()
        self.busy[sid] += left - entered
        self.charge(left - entered)
        return left

    def charge(self, seconds: float) -> None:
        """Count time spent inside the running span as not its own:
        a nested child's, or the tracer's bookkeeping."""
        if self._running:
            self.child_busy[self._running[-1]] += seconds

    # -- reading -----------------------------------------------------------

    def spans(self, name: str) -> List[int]:
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [sid for sid, nid in enumerate(self.name) if nid == name_id]

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def durations(self, name: str) -> List[float]:
        return [self.end[sid] - self.start[sid] for sid in self.spans(name)]

    def self_times(self, name: str) -> List[float]:
        return [self.busy[sid] - self.child_busy[sid] for sid in self.spans(name)]

    def dump(self, path: str) -> int:
        """Write every span as one JSON line (gzipped); returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for sid in range(len(self.name)):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": self.names[self.name[sid]],
                            "start": self.start[sid],
                            "end": self.end[sid],
                            "parent": self.parent[sid],
                            "rid": self.rid[sid],
                            "busy": self.busy[sid],
                            "self": self.busy[sid] - self.child_busy[sid],
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
        return len(self.name)


class _Stepped:
    """Drive a coroutine step by step, charging each step to a span."""

    __slots__ = ("_inner", "_tracer", "_sid")

    def __init__(self, tracer: Tracer, sid: int, coro) -> None:
        self._inner = coro.__await__()
        self._tracer = tracer
        self._sid = sid

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        entered = self._tracer.enter(self._sid)
        try:
            return self._inner.send(value)
        finally:
            self._tracer.leave(self._sid, entered)

    def throw(self, *exc_info):
        entered = self._tracer.enter(self._sid)
        try:
            return self._inner.throw(*exc_info)
        finally:
            self._tracer.leave(self._sid, entered)

    def close(self):
        self._inner.close()


RidOf = Callable[[tuple, dict], Optional[int]]


def _no_rid(args: tuple, kwargs: dict) -> Optional[int]:
    return None


def traced_sync(
    tracer: Tracer, name: str, fn, rid_of: RidOf = _no_rid, before=None, after=None
):
    """Wrap a plain function.  ``before(args)`` and ``after(result,
    args, before_value)`` run outside the span, for measurements that
    must not be timed; like the tracer's bookkeeping, they are not
    charged to the enclosing span's self time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        began = _now()
        state = before(args) if before is not None else None
        sid = tracer.open(name, rid_of(args, kwargs))
        token = _CURRENT.set(sid)
        entered = tracer.enter(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            left = tracer.leave(sid, entered)
            tracer.end[sid] = left
            _CURRENT.reset(token)
        if after is not None:
            after(result, args, state)
        tracer.charge(_now() - began - (left - entered))
        return result

    return wrapper


def traced_async(tracer: Tracer, name: str, fn, rid_of: RidOf = _no_rid):
    """Wrap a coroutine function; its span's busy time is per step."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        began = _now()
        sid = tracer.open(name, rid_of(args, kwargs))
        previous = _CURRENT.get()
        _CURRENT.set(sid)
        tracer.charge(_now() - began)
        try:
            return await _Stepped(tracer, sid, fn(*args, **kwargs))
        finally:
            tracer.end[sid] = _now()
            _CURRENT.set(previous)

    return wrapper


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def everywhere(self, original: Any, replacement: Any) -> int:
        """Rebind every module-level name in ``repro`` that refers to
        ``original``; returns how many names were patched."""
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    patched += 1
        return patched

    def undo(self) -> None:
        while self._undo:
            owner, attr, own, value = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class LoopProbe:
    """Event-loop counters: tasks created, timers armed, callback lag
    (lateness of a periodic probe) and garbage-collector pauses."""

    def __init__(self, interval: float = 0.002) -> None:
        self.interval = interval
        self.tasks = 0
        self.timers = 0
        self.lags: List[float] = []
        self.gc_pause = 0.0
        self._gc_started = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._previous_factory = None
        self._handle: Optional[asyncio.TimerHandle] = None
        self._call_at = None

    def _task_factory(self, loop, coro, context=None):
        self.tasks += 1
        return asyncio.Task(coro, loop=loop, context=context)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = _now()
        else:
            self.gc_pause += _now() - self._gc_started

    def _probe(self, due: float) -> None:
        now = self._loop.time()
        self.lags.append(now - due)
        self._handle = self._call_at(now + self.interval, self._probe, now + self.interval)

    def install(self, patches: Patches) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._previous_factory = loop.get_task_factory()
        loop.set_task_factory(self._task_factory)
        # The probe re-arms itself through the original method, so its
        # own timers are not counted.
        self._call_at = loop.call_at
        probe = self

        def call_at(when, callback, *args, context=None):
            probe.timers += 1
            return probe._call_at(when, callback, *args, context=context)

        patches.set(loop, "call_at", call_at)
        gc.callbacks.append(self._on_gc)
        due = loop.time() + self.interval
        self._handle = self._call_at(due, self._probe, due)

    def uninstall(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        if self._loop is not None:
            self._loop.set_task_factory(self._previous_factory)
