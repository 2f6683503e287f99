"""In-memory span recorder for the traced benchmark run.

A span is one call through a layer boundary: ``(id, name, start, end,
parent, run)``.  The recorder keeps spans in memory while the workload
runs, computes each span's self time (its duration minus the part of it
that its child spans cover) and the coverage of a root span by named
spans, and writes the spans out as JSON lines when asked.

Wrappers are installed on attributes of live objects (classes and
modules) and restored by :meth:`Recorder.uninstall`.  A wrapped call
that runs inside a span of the same name (a subclass delegating to its
base, a recursive call) opens no second span, so a call is counted once.
Each thread keeps its own span stack; a span opened on a worker thread
has no parent.  Coroutine functions are timed as detached spans (no
parent, never on the stack), because other coroutines run while they
wait.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    """One timed call through a layer boundary."""

    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Recorder:
    """Records spans and counters; installs and removes call wrappers.

    ``clock`` returns seconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.run = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span | None:
        """Start a span on this thread; ``None`` if one of ``name`` is open."""
        stack = self._stack()
        if stack and stack[-1].name == name:
            return None
        span = Span(
            next(self._ids), name, self.clock(), None,
            stack[-1].id if stack else None, self.run,
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        """End a span opened by :meth:`open` (a ``None`` span is a no-op)."""
        if span is None:
            return
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`open` / :meth:`close`."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrappers ---------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that times it as ``name``.

        ``after(result, *args, **kwargs)`` runs after each successful call
        (to read counts off the result); with ``name=None`` the wrapper
        records no span and only calls ``after``.  Works on plain
        functions, methods, classmethods, staticmethods and coroutine
        functions.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = self._make_wrapper(fn, name, after)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)
        self._patches.append((owner, attr, raw))

    def _make_wrapper(self, fn, name, after):
        rec = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = rec.clock()
                result = await fn(*args, **kwargs)
                if name is not None:
                    rec.spans.append(
                        Span(next(rec._ids), name, start, rec.clock(), None, rec.run)
                    )
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None and s.end is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            if s.end is None:
                continue
            clipped = [
                (max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.id, [])
                if hi > s.start and lo < s.end
            ]
            out[s.id] = s.duration - _union_length(clipped)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and total ``self_s``."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if s.end is None:
                continue
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[s.id]
        return out

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s duration covered by other spans of its run.

        Spans of any thread count, so work handed to worker threads
        covers the time the root spent waiting for it.
        """
        if root.end is None or root.duration <= 0:
            return 0.0
        inside = [
            (max(s.start, root.start), min(s.end, root.end))
            for s in self.spans
            if s is not root and s.end is not None and s.run == root.run
            and s.end > root.start and s.start < root.end
        ]
        return _union_length(inside) / root.duration

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run": s.run,
                }) + "\n")
