"""In-memory span recorder for the traced run, and its per-name summary.

The launcher wraps the public callables of each layer with
:meth:`Tracer.wrap`; every call becomes one span
``[name, start, end, parent, tick, value]`` where *parent* is the index of
the span that was open when it started (-1 for none), *tick* is the
timestamp of the tick the work belongs to (the id every span of one tick
shares) and *value* is an optional count measured at the same boundary
(bytes, replayed ticks, ...).  Spans stay in memory and are written as one
JSON line each when the service stops.  Only the stdlib is imported here,
so the tracer is usable before ``repro`` itself is imported (that import
is one of the set-up spans).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

NAME, START, END, PARENT, TICK, VALUE = range(6)


class Tracer:
    """Records nested spans of synchronous calls on one thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: timestamp of the tick that current work belongs to
        self.tick = -1

    def wrap(
        self,
        name: str,
        function: Callable,
        value: Optional[Callable] = None,
        rename: Optional[Callable] = None,
    ) -> Callable:
        """Return *function* wrapped in a span called *name*.

        Args:
            value: ``value(args, result)`` -> the count stored with the span.
            rename: ``rename(args, parent_name)`` -> span name for this
                call, for callables shared by two layers.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_name = name
            if rename is not None:
                span_name = rename(args, spans[parent][NAME] if parent >= 0 else None)
            record = [span_name, clock(), 0.0, parent, self.tick, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if value is not None:
                record[VALUE] = value(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Context-manager form, for code the launcher runs itself."""
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                  self.tick, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str, meta: Optional[dict] = None) -> None:
        """Write every span (one JSON list per line), then one meta object."""
        with open(path, "w", encoding="utf-8") as stream:
            for record in self.spans:
                stream.write(json.dumps(record) + "\n")
            stream.write(json.dumps({"meta": meta or {}}) + "\n")


def load_spans(path: str):
    """Read a :meth:`Tracer.dump` file back: ``(spans, meta)``."""
    spans: List[list] = []
    meta: dict = {}
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if isinstance(record, dict):
                meta = record["meta"]
            else:
                spans.append(record)
    return spans, meta


class SpanStats:
    """Per-name totals over a set of spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        #: summed duration, seconds
        self.total: Dict[str, float] = defaultdict(float)
        #: summed self time (duration minus direct children), seconds
        self.self_time: Dict[str, float] = defaultdict(float)
        #: summed numeric span values
        self.value: Dict[str, float] = defaultdict(float)

    def self_sum(self, names: Optional[Iterable[str]] = None) -> float:
        """Summed self time of *names* (every name when None), seconds."""
        if names is None:
            return sum(self.self_time.values())
        return sum(self.self_time[name] for name in names)


def summarize(spans: List[list], first_tick: int, last_tick: int) -> SpanStats:
    """Totals of the spans whose tick lies in ``[first_tick, last_tick)``.

    A span's self time is its duration minus the durations of its direct
    children; children always nest inside their parent (one thread, stack
    discipline), so self times of a tree sum to the root's duration.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += record[END] - record[START]
    stats = SpanStats()
    for index, record in enumerate(spans):
        if not first_tick <= record[TICK] < last_tick:
            continue
        name = record[NAME]
        duration = record[END] - record[START]
        stats.calls[name] += 1
        stats.total[name] += duration
        stats.self_time[name] += duration - child_time[index]
        if isinstance(record[VALUE], (int, float)):
            stats.value[name] += record[VALUE]
    return stats
