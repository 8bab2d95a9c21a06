"""Lightweight nested spans (a per-thread call-tree of timed sections).

A span marks one timed section of the serving pipeline ("request",
"garble", "ot", "stream").  Nesting is tracked per thread with a
context-manager stack, so concurrent requests each build their own
well-formed tree while sharing one recorder; completed spans land in a
single ring ordered by completion time, which keeps the most recent
:data:`SPAN_RING` of them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Completed spans a recorder keeps (the most recent ones).
SPAN_RING = 1024


@dataclass(slots=True)
class Span:
    """One timed section; ``parent`` is the enclosing span's name."""

    name: str
    parent: str | None
    depth: int
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ConfigurationError(f"span '{self.name}' is still open")
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any number of threads into one bounded,
    completion-ordered ring of the :data:`SPAN_RING` most recent."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._completed: deque[Span] = deque(maxlen=SPAN_RING)

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sp = Span(
            name=name,
            parent=stack[-1].name if stack else None,
            depth=len(stack),
            start=self._clock(),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            stack.pop()
            with self._lock:
                self._completed.append(sp)

    @property
    def active_depth(self) -> int:
        """Nesting depth on the calling thread (0 = no open span)."""
        return len(self._stack())

    def completed(self) -> list[Span]:
        with self._lock:
            return list(self._completed)

    def snapshot(self) -> list[dict]:
        """Completed spans as plain dicts (JSON-ready, completion order)."""
        return [
            {
                "name": sp.name,
                "parent": sp.parent,
                "depth": sp.depth,
                "start": sp.start,
                "end": sp.end,
                "duration": sp.duration,
            }
            for sp in self.completed()
        ]
