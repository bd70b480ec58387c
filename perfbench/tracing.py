"""Spans around calls into the program's layers, installed from outside.

The benchmark wraps public functions and methods of the program with
:meth:`Tracer.wrap`; the program's files are not changed.  Each wrapped
call is a span: it counts a call, adds its duration, and adds its *self*
time — the duration minus the part its child spans (wrapped calls made
inside it, on the same thread) cover.  Spans that have no parent are
*root* spans; their total says how much of a run the spans cover.  Root
spans also add the CPU time of their own thread (``root_cpu_s``): root
spans of different threads overlap in wall time, and a span's wall time
includes waits for the GIL and for I/O, so only the CPU sum can be set
against the process's CPU time.

Statistics live per thread (no lock on the hot path) and are merged
when read.  Every update replaces an immutable tuple, so a snapshot taken
from another thread never sees a half-applied span.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (calls, total seconds, self seconds, bytes)
Stat = Tuple[int, float, float, int]
_ZERO: Stat = (0, 0.0, 0.0, 0)


class _ThreadState:
    """One thread's open spans and statistics."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.stats: Dict[str, Stat] = {}
        self.root_s = 0.0
        self.root_cpu_s = 0.0


class Tracer:
    """Span recorder for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._register = threading.Lock()
        #: request id -> seconds spent in the span named by ``keyed``.
        self.keyed: Dict[str, float] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._register:
                self._threads.append(state)
        return state

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        payload_bytes: Optional[Callable[..., int]] = None,
        key: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable of the call's arguments
        that returns it.  ``payload_bytes`` maps the arguments to a byte
        count added to the span's ``bytes``; ``key`` maps them to an id
        under which the span's duration is kept in :attr:`keyed`.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(function)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            stack = state.stack
            cpu_start = 0.0 if stack else thread_time()
            stack.append(0.0)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    state.root_s += duration
                    state.root_cpu_s += thread_time() - cpu_start
                label = name(*args, **kwargs) if callable(name) else name
                calls, total, own, nbytes = state.stats.get(label, _ZERO)
                if payload_bytes is not None:
                    nbytes += payload_bytes(*args, **kwargs)
                state.stats[label] = (
                    calls + 1, total + duration, own + duration - children, nbytes
                )
                if key is not None:
                    request_id = key(*args, **kwargs)
                    if request_id is not None:
                        tracer.keyed[request_id] = duration

        setattr(owner, attr, kind(spanned) if kind is not None else spanned)
        self._undo.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (latest first)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Merged statistics of every thread so far."""
        merged: Dict[str, Stat] = {}
        root_s = root_cpu_s = 0.0
        with self._register:
            threads = list(self._threads)
        for state in threads:
            root_s += state.root_s
            root_cpu_s += state.root_cpu_s
            for label, stat in list(state.stats.items()):
                calls, total, own, nbytes = merged.get(label, _ZERO)
                merged[label] = (
                    calls + stat[0], total + stat[1], own + stat[2], nbytes + stat[3]
                )
        return {
            "root_s": root_s,
            "root_cpu_s": root_cpu_s,
            "stats": {k: list(v) for k, v in merged.items()},
        }


def window(start: Dict[str, Any], end: Dict[str, Any]) -> Dict[str, Any]:
    """What happened between two snapshots."""
    stats = {}
    for label, stat in end["stats"].items():
        before = start["stats"].get(label, [0, 0.0, 0.0, 0])
        stats[label] = [a - b for a, b in zip(stat, before)]
    return {
        "root_s": end["root_s"] - start["root_s"],
        "root_cpu_s": end["root_cpu_s"] - start["root_cpu_s"],
        "stats": stats,
    }


def layer_metrics(
    trace: Dict[str, Any], wanted: Dict[str, Tuple[str, ...]]
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from a trace window.

    ``wanted`` maps a span name to the fields to report, each one of
    ``calls``, ``self_s``, ``total_s`` or ``bytes``.  Spans not seen
    read 0.
    """
    index = {"calls": 0, "total_s": 1, "self_s": 2, "bytes": 3}
    units = {"calls": "count", "total_s": "s", "self_s": "s", "bytes": "B"}
    out: Dict[str, Dict[str, Any]] = {}
    for label, fields in wanted.items():
        stat = trace["stats"].get(label, [0, 0.0, 0.0, 0])
        for field in fields:
            out[f"{label}.{field}"] = {"value": stat[index[field]], "unit": units[field]}
    return out
