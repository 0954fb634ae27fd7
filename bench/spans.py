"""In-memory spans and counters recorded by the benchmark harness.

Spans are taken only around the calls the harness makes into ``pwldyn``;
nothing inside the package is instrumented.  A span is a tuple
``(name, start, end, parent, op)`` where ``parent`` indexes the enclosing
span (or is None) and ``op`` numbers the benchmark job the span belongs to.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing switched off: spans and counts cost one call and record nothing."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def job(self, name: str):
        return _NULL

    def count(self, name: str, amount=1) -> None:
        pass

    def maximum(self, name: str, value) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, name: str):
        """Root span of one benchmark job; its children share one op id."""
        self._op += 1
        with self.span(name):
            yield

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the children's cover.

        Children of one span run one after another, so their durations add.
        """
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_cover[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_cover[i]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")
