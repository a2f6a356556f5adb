"""In-memory spans around the benchmark's calls into movcone, the reference
loop that scales timings to a fixed CPU speed, and the summary statistics
the benchmark reports."""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter_ns

ANY = "*"  # durations() key matching every span key

# The CPU speed of a shared host drifts by up to 1.5x over tens of seconds
# (other tenants, clock boost), so raw wall times spread by 10-50% between
# runs.  Every timed pass is therefore scaled by a fixed pure-Python loop
# timed just before and after it, which removes most of that drift.
# The loop's typical time on the 2-vCPU Intel Xeon host (Python 3.11) the
# benchmark was written on, so scaled times read close to wall time there.
REFERENCE_S = 0.004


def _reference_loop() -> int:
    x = 0
    for i in range(50_000):
        x += i * i % 7
    return x


def reference_s() -> float:
    """Fastest of three timings of the reference loop, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter_ns()
        _reference_loop()
        best = min(best, perf_counter_ns() - t0)
    return best / 1e9


class Tracer:
    """Records (name, key, start_ns, end_ns, parent index, op id) per call.

    A disabled tracer calls straight through, so timed runs and traced runs
    execute the same workload code.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, key=None):
        if not self.enabled:
            return fn(*args)
        with self.span(name, key):
            return fn(*args)

    @contextmanager
    def span(self, name: str, key=None):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, key, start, end, parent, self.op)

    def durations(self, name: str, key=ANY) -> list[int]:
        return [s[3] - s[2] for s in self.spans if s[0] == name and key in (ANY, s[1])]

    def self_time_by_layer(self) -> dict[str, int]:
        """Span duration minus its direct children, summed per layer (the
        part of the name before the first dot)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: dict[str, int] = {}
        for s, c in zip(self.spans, child):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0) + (s[3] - s[2]) - c
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "key": k, "start_ns": a, "end_ns": b, "parent": p, "op": o}
            for n, k, a, b, p, o in self.spans
        ]


def median(xs) -> float:
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def tail(xs) -> tuple[float, float]:
    """(value, percentile): p99 when at least ten samples lie beyond it,
    otherwise the highest nearest-rank percentile that has ten beyond it,
    but never below the upper median (below 21 samples no higher percentile
    has ten beyond it)."""
    xs = sorted(xs)
    n = len(xs)
    rank = max(min(math.ceil(0.99 * n), n - 10), n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0
