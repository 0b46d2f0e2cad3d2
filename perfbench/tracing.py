"""Benchmark-side spans around the calls into each layer.

Spans are kept in memory and written once, at the end of a run, as
Chrome trace-event JSON (``{"traceEvents": [...]}``), which Perfetto and
``chrome://tracing`` open directly.  Each span records its name, start,
end, parent span and op id; spans of one op share the op id, which a
child inherits from its parent.

:func:`instrumented` wraps the program's layer entry points in spans for
the length of a ``with`` block, so a traced op runs the very code an
untraced one does, with only the spans' own cost added.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    op: Optional[str]
    parent: Optional[int]
    start: float
    end: float = 0.0
    thread: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Collects the spans of one run (thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **args) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans) + 1
            if op is None:
                op = stack[-1].op if stack else f"span{span_id}"
            record = Span(
                span_id=span_id,
                name=name,
                op=op,
                parent=stack[-1].span_id if stack else None,
                start=time.perf_counter(),
                thread=threading.get_ident(),
                args=dict(args),
            )
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span called ``name``.

        ``note(span, result, args, kwargs)`` runs after the span has
        closed, so what it records costs the span nothing.  A generator
        function's span covers its whole iteration.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def spanned_iter(*args, **kwargs):
                with self.span(name):
                    yield from fn(*args, **kwargs)
            return spanned_iter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if note is not None:
                note(record, result, args, kwargs)
            return result
        return spanned

    def self_ms(self) -> Dict[int, float]:
        """Each finished span's duration minus that of its children."""
        own = {s.span_id: s.ms for s in self.spans if s.end}
        for s in self.spans:
            if s.parent in own and s.end:
                own[s.parent] -= s.ms
        return own

    def per_op_ms(self, name: str) -> Dict[str, float]:
        """Self time of the spans called ``name``, summed per op."""
        own = self.self_ms()
        totals: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.name == name and s.span_id in own:
                totals[s.op] += own[s.span_id]
        return dict(totals)

    def median_ms(self, name: str) -> float:
        """Median per-op self time of ``name``; 0.0 when it never ran."""
        values = list(self.per_op_ms(name).values())
        return statistics.median(values) if values else 0.0

    def chrome_trace(self) -> dict:
        threads: Dict[int, int] = {}
        events = []
        for s in self.spans:
            tid = threads.setdefault(s.thread, len(threads) + 1)
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - self._origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": os.getpid(),
                "tid": tid,
                "args": {
                    "span_id": s.span_id,
                    "parent": s.parent,
                    "op": s.op,
                    **s.args,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(), default=str))


#: ``(owner, attribute, span name, note)``: a layer entry point to wrap.
Boundary = Tuple[object, str, str, Optional[Callable]]


@contextmanager
def instrumented(tracer: Tracer, boundaries: Sequence[Boundary]) -> Iterator[None]:
    """Wrap every boundary in a span until the block ends."""
    originals = []
    try:
        for owner, attribute, name, note in boundaries:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, note))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
