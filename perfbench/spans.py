"""In-memory span recording for the traced benchmark run.

A span is one call across a layer boundary: its name ("<module>.<step>"),
start and end (``time.perf_counter`` seconds), the index of the span that
was open when it started (-1 for none), the operation id the runner set, and
an optional note (counts or peak memory measured at that boundary).  Spans
stay in a list until the run ends and are then written out as JSON lines.

Spans come from two places, both in the benchmark's own files: the runner
opens one around each operation, and ``Tracer.hook`` replaces a symmix
function or method by a wrapper that records a span around every call.
Nothing under ``src/`` is edited; ``Tracer.unhook`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``op`` labels every span opened until it is changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _enter(self, name: str, memory: bool) -> tuple[Span, bool]:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        # memory peaks are taken only for spans that never nest in one another
        track = memory and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        span = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        return span, track

    def _exit(self, span: Span, track: bool):
        span.end = time.perf_counter()
        if track:
            self.note(span, peak_bytes=tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        self._stack.pop()

    @staticmethod
    def note(span: Span, **values):
        if span.note is None:
            span.note = {}
        span.note.update(values)

    @contextmanager
    def span(self, name: str, memory: bool = False):
        span, track = self._enter(name, memory)
        try:
            yield span
        finally:
            self._exit(span, track)

    def hook(self, module: str, attr: str, name: str, note=None, memory: bool = False):
        """Wrap ``<module>.<attr>`` so each call records a span called ``name``.

        ``attr`` may be ``Class.method``.  ``note(args, result)`` returns counts
        to attach to the span.  A target that no longer exists raises, so a
        refactor of symmix fails the traced run instead of zeroing a layer.
        """
        *path, attr = attr.split(".")
        owner = functools.reduce(getattr, path, importlib.import_module(module))
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span, track = tracer._enter(name, memory)
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    tracer.note(span, **note(args, result))
                return result
            finally:
                tracer._exit(span, track)

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def unhook(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.note]) + "\n")


class NullTracer:
    """Stand-in for the untraced run: opens no spans and installs no hooks."""

    op = None

    def span(self, name: str, memory: bool = False):
        return nullcontext()

    def hook(self, *args, **kwargs):
        pass

    def unhook(self):
        pass


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
