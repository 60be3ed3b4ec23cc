"""In-memory span recording around the program's public functions.

A :class:`Tracer` replaces a function or method *attribute* with a wrapper
that records one span per call (name, start, end, parent) and then calls
the original, so the code being timed is always the program's current
code; nothing here re-implements it.  Spans live in a list until
:meth:`Tracer.summary` folds them into per-name totals and self times (a
span's duration minus the durations of its direct children).  Each thread
keeps its own parent stack, so spans from an executor thread nest
correctly.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    """Records spans and counts; patches attributes and restores them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent_id]`` per span, in start order.
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        record = [name, self.clock(), None, stack[-1] if stack else None]
        self.spans.append(record)
        span_id = len(self.spans) - 1
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            record[2] = self.clock()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # ------------------------------------------------------------------
    def traced(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(result, *args, **kwargs)``
        may count work and may return a replacement result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                replaced = after(result, *args, **kwargs)
                if replaced is not None:
                    return replaced
            return result

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Trace ``owner.attr`` (a module function, method or classmethod)."""
        raw = inspect.getattr_static(owner, attr)
        self._patched.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.traced(name, raw.__func__, after))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.traced(name, raw.__func__, after))
        else:
            wrapped = self.traced(name, raw, after)
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for span_id, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[span_id]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)

