"""Span recorder for the traced benchmark run.

The recorder wraps functions of the psl2cert package at the attribute their
callers look up, so a call made from inside the package is recorded as well
as one made by the benchmark.  Each call becomes one span (name, start, end,
parent); every span stays in memory until the job ends.  Counters are taken
at the same boundaries, from the wrapped call's arguments and result.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []  # indices of the spans still running

    def wrap(self, owner, attr: str, name: str, count=None, static: bool = False):
        """Replace owner.attr by a wrapper that records a span per call.

        count(counts, args, result), if given, runs after each call.
        static marks a staticmethod, which must be rewrapped as one.
        """
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = orig(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        self.spans[index][1] = perf_counter()
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def summary(self) -> dict:
        """Per span name: self time, total time and longest single span,
        and the time covered by top-level spans.

        A span's self time is its duration minus the time its child spans
        cover; the job runs in one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        longest: dict[str, float] = defaultdict(float)
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
            total[name] += end - start
            longest[name] = max(longest[name], end - start)
            if parent < 0:
                covered += end - start
        return {"self": self_time, "total": total, "longest": longest, "covered": covered}
