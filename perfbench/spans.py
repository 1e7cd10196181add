"""A span recorder that traces the program from outside.

:class:`SpanRecorder` replaces public methods on *instances* of the program's
layers with timing wrappers (nothing under ``src/`` is edited) and records one
span per call: name, start, end, parent span and batch id.  Spans are kept in
memory; :meth:`SpanRecorder.write` dumps them as JSON lines and
:func:`self_times` derives each layer's self time (its span durations minus
the part covered by its child spans).

The recorder is single-threaded: it keeps one stack of open spans, which is
right for the closed-loop client and for the planner's in-process batch path.
It only sees the process it lives in; pooled workers are forked copies and
their work is accounted through ``RUSAGE_CHILDREN`` instead.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (name, start_s, end_s, parent span index or -1, batch id)
Span = Tuple[str, float, float, int, Optional[int]]


class SpanRecorder:
    """In-memory spans and per-layer counters of one traced replay."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        #: Per-layer outcome counters filled by the ``observe`` callbacks.
        self.counts: Counter = Counter()
        self.batch_id: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str]] = []

    def wrap(
        self,
        obj: Any,
        method: str,
        name: str,
        observe: Optional[Callable[[Counter, Any], None]] = None,
        on_error: Optional[Callable[[Counter, BaseException], None]] = None,
    ) -> None:
        """Trace ``obj.method`` as span ``name`` until :meth:`unwrap_all`.

        ``observe(counts, result)`` runs after a successful call and
        ``on_error(counts, exc)`` after a failed one (the exception is
        re-raised).  Both run inside the span, so their cost counts in this
        layer's self time and in the measured tracing overhead.
        """
        original = getattr(obj, method)
        spans, stack, calls, failed, counts = (
            self.spans, self._stack, self.calls, self.failed, self.counts
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            calls[name] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                failed[name] += 1
                if on_error is not None:
                    on_error(counts, exc)
                raise
            else:
                if observe is not None:
                    observe(counts, result)
                return result
            finally:
                stack.pop()
                spans[index] = (name, start, clock(), parent, self.batch_id)

        setattr(obj, method, traced)
        self._patched.append((obj, method))

    def unwrap_all(self) -> None:
        """Restore every wrapped method (instance attributes are removed,
        so the class's own method shows through again)."""
        for obj, method in reversed(self._patched):
            delattr(obj, method)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                name, start, end, parent, batch = span
                handle.write(json.dumps([name, start, end, parent, batch]) + "\n")


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one stack), so the children's intervals
    lie inside the parent's and do not overlap one another.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, _batch in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _batch) in enumerate(spans):
        totals[name] += (end - start) - child_time.get(index, 0.0)
    return dict(totals)
