"""Span recorder and the statistics the benchmark reports.

A span is ``[name, start, end, parent, op_id]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op_id`` ties every span of one
timed operation together. Spans stay in memory and are written out once,
when the run ends. Named values (solver iterations, bytes written) are kept
beside them. `NULL` is the recorder of untraced runs: its spans do nothing.

Stdlib-only, shared by the orchestrator and the worker.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class _Span:
    __slots__ = ("_tracer", "_name", "_rec")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tr = self._tracer
        parent = tr._open[-1] if tr._open else -1
        tr._open.append(len(tr.spans))
        self._rec = [self._name, 0.0, 0.0, parent, tr.op_id]
        tr.spans.append(self._rec)
        self._rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._rec[2] = time.perf_counter()
        self._tracer._open.pop()
        return False


class Tracer:
    """Records spans and named values in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.op_id = 0
        self._open: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def value(self, name: str, x: float) -> None:
        self.values[name].append(float(x))

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        """Median duration of the spans called ``name`` times ``scale``;
        0.0 when there are none."""
        d = self.durations(name)
        return statistics.median(d) * scale if d else 0.0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    op_id = 0
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def value(self, name: str, x: float) -> None:
        pass


NULL = _NullTracer()


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least ten samples, and at least 1%
    of the samples, above it: p99 from 1000 samples up.

    Ten samples place a tail but do not steady it: with about 12,000
    `curves` points a run, the spread (quartile distance over median) of
    the sample ten from the top over ten seeds was 0.22, against 0.09 for
    p99 over five.

    Returns (value, percentile, samples). With ten samples or fewer the
    maximum is returned and the percentile reads 100. The tail is never
    taken below the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 1 - max(10, n // 100), n // 2) if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n
