"""Span tracing: nested wall-time spans with Chrome-trace export.

A :class:`TraceCollector` records :class:`Span` objects pushed/popped by
the ``trace_span`` context manager (see :mod:`repro.obs`).  Each thread
keeps its own span stack, so concurrent simulations nest correctly.

Finished traces export two ways:

- :meth:`TraceCollector.to_jsonl` — one JSON object per line, stable for
  grep/jq pipelines;
- :meth:`TraceCollector.chrome_trace` — the Chrome ``trace_event``
  format (``"ph": "X"`` complete events, microsecond timestamps), which
  loads directly into ``about://tracing`` or https://ui.perfetto.dev.
"""

import json
import os
import threading
import time


class Span:
    """One finished (or in-flight) wall-time span."""

    __slots__ = ("name", "attrs", "start", "end", "depth", "thread_id",
                 "parent", "index")

    def __init__(self, name, attrs, start, depth, thread_id, parent, index):
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end = None
        self.depth = depth
        self.thread_id = thread_id
        self.parent = parent  # index of the enclosing span, or None
        self.index = index

    @property
    def duration(self):
        """Wall-time seconds, or None while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def as_dict(self):
        """Plain-dict form (JSONL export)."""
        return {
            "index": self.index,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "thread": self.thread_id,
            "attrs": self.attrs,
        }


class _ActiveSpan:
    """Context manager pairing one ``__enter__`` with one ``__exit__``."""

    __slots__ = ("_collector", "_span")

    def __init__(self, collector, span):
        self._collector = collector
        self._span = span

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self._span.attrs = dict(self._span.attrs, error=repr(exc))
        self._collector._pop(self._span)
        return False

    def set_attr(self, **attrs):
        """Merge attributes into the span (visible in every export)."""
        self._span.attrs = dict(self._span.attrs, **attrs)
        return self

    @property
    def duration(self):
        """Wall-time seconds of the span (None while still open)."""
        return self._span.duration


class _NullSpan:
    """No-op stand-in returned when no trace collector is attached."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set_attr(self, **attrs):
        return self

    duration = None


NULL_SPAN = _NullSpan()


class TraceCollector:
    """Accumulates spans for one profiling session."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = []
        self.epoch = clock()

    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, **attrs):
        """Open a span; use as ``with collector.span("x", k=v): ...``."""
        stack = self._stack()
        parent = stack[-1].index if stack else None
        with self._lock:
            index = len(self.spans)
            span = Span(
                name, attrs, self._clock(), len(stack),
                threading.get_ident(), parent, index,
            )
            self.spans.append(span)
        stack.append(span)
        return _ActiveSpan(self, span)

    def _pop(self, span):
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exception unwound through nested spans
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()

    # ------------------------------------------------------------------
    def finished(self):
        """Spans that have been closed, in open order."""
        return [span for span in self.spans if span.end is not None]

    def to_jsonl(self):
        """One JSON object per finished span, newline-separated."""
        return "\n".join(
            json.dumps(span.as_dict(), sort_keys=True)
            for span in self.finished()
        ) + ("\n" if self.spans else "")

    def chrome_trace(self):
        """Chrome ``trace_event`` document (load in Perfetto)."""
        events = []
        for span in self.finished():
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start - self.epoch) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": os.getpid(),
                "tid": span.thread_id,
                "cat": span.name.split(".", 1)[0],
                "args": dict(span.attrs, depth=span.depth),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_jsonl(self, path):
        """Write the JSONL export to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def write_chrome_trace(self, path):
        """Write the Chrome-trace export to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
            handle.write("\n")
