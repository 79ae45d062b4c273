"""Lightweight nested tracing spans.

A :class:`Tracer` records spans — named, timed, attributed intervals —
into an in-memory buffer.  Nesting is implicit through a per-thread stack:
a span opened inside another span's ``with`` block records that span as
its parent, so a swept experiment produces the tree

    sweep
      cache.get            (per configuration)
      experiment           (per miss)
        kernel             (reference, then candidate)
        cache.put

Worker processes each have their own tracer; :meth:`Tracer.drain` empties
the worker buffer into a plain-JSON list that travels back with the chunk
results, and :meth:`Tracer.absorb` re-parents those spans under the
parent process's open span.  Span ids embed the pid, so merged traces
stay unambiguous.

When tracing is disabled the runtime hands out :data:`NULL_TRACER`, whose
``span`` is a shared no-op context manager — instrumentation sites pay one
attribute check and nothing else.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "render_span_tree"]


class Tracer:
    """Buffering span recorder with implicit parent tracking."""

    def __init__(self):
        self._buffer: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def clear_stack(self) -> None:
        """Forget the calling thread's open-span stack (worker startup)."""
        self._local.stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the managed block; yields the span doc."""
        span_id = f"{os.getpid()}-{next(self._ids)}"
        doc = {
            "name": name,
            "id": span_id,
            "parent": self.current_span_id(),
            "pid": os.getpid(),
            "start": time.time(),
            "end": None,
            "attrs": {k: v for k, v in attrs.items() if v is not None},
        }
        stack = self._stack()
        stack.append(span_id)
        try:
            yield doc
        finally:
            stack.pop()
            doc["end"] = time.time()
            doc["dur_ms"] = (doc["end"] - doc["start"]) * 1000.0
            with self._lock:
                self._buffer.append(doc)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def spans(self) -> list:
        with self._lock:
            return list(self._buffer)

    def drain(self) -> list:
        """Return the buffered spans and clear the buffer."""
        with self._lock:
            spans, self._buffer = self._buffer, []
        return spans

    def absorb(self, spans, parent_id=None) -> None:
        """Merge spans drained elsewhere; orphan roots adopt ``parent_id``."""
        spans = list(spans)
        local_ids = {s["id"] for s in spans}
        for span in spans:
            if span["parent"] is None or span["parent"] not in local_ids:
                span = {**span, "parent": span["parent"] or parent_id}
            with self._lock:
                self._buffer.append(span)

    def append_jsonl(self, path) -> Path:
        """Drain the buffer into a JSON-lines file (append)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.drain()
        if spans:
            with path.open("a") as handle:
                for span in spans:
                    handle.write(
                        json.dumps(span, sort_keys=True, separators=(",", ":")) + "\n"
                    )
        return path


class NullTracer:
    """No-op tracer handed out when tracing is disabled."""

    @contextmanager
    def _null(self):
        yield None

    def span(self, name: str, **attrs):
        return self._null()

    def current_span_id(self):
        return None

    def spans(self) -> list:
        return []

    def drain(self) -> list:
        return []

    def absorb(self, spans, parent_id=None) -> None:
        pass


NULL_TRACER = NullTracer()


def render_span_tree(spans, roots_only_last: bool = False) -> str:
    """Indented text rendering of a span list (as read from the JSONL).

    Children print under their parent ordered by start time; roots are
    spans whose parent never appears in the list.  With
    ``roots_only_last`` only the most recently started root renders.
    """
    spans = sorted(spans, key=lambda s: s["start"])
    by_id = {s["id"]: s for s in spans}
    children: dict = {}
    roots = []
    for span in spans:
        parent = span.get("parent")
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    if roots_only_last and roots:
        roots = roots[-1:]

    lines: list = []

    def _render(span, depth):
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span["attrs"].items()))
        dur = span.get("dur_ms")
        dur_text = f"{dur:.1f}ms" if dur is not None else "?"
        lines.append(
            "  " * depth
            + f"{span['name']} {dur_text}"
            + (f"  [{attrs}]" if attrs else "")
        )
        for child in children.get(span["id"], []):
            _render(child, depth + 1)

    for root in roots:
        _render(root, 0)
    return "\n".join(lines)
