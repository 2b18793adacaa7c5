"""In-memory spans recorded around bchkit's public calls.

A span has a name, start and end (``perf_counter_ns``), the id of the span
that was open when it began, and the id of the job it belongs to.  Spans are
aggregated as they close (calls, total time, self time = duration minus the
time covered by child spans); the first ``KEEP_SPANS`` spans are also kept raw so
they can be written out when the benchmark ends.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns
KEEP_SPANS = 20_000  # raw spans kept for the dump
CALIBRATION_ROUNDS = 2000  # empty spans timed to net out the tracer's own cost


def _noop():
    return None


class Tracer:
    def __init__(self):
        self.job = 0
        self.totals: dict[str, list] = {}  # name -> [calls, items, total_ns, self_ns]
        self.raw: list[tuple] = []
        self.spans = 0
        self._open: list[list] = []  # [id, name, start, child_ns]
        self.empty_ns = 0.0
        self.empty_ns = self._calibrate()

    def _calibrate(self) -> float:
        """Median duration of a span around a no-op call: the tracer's own share of every span."""
        for _ in range(CALIBRATION_ROUNDS):
            self.call("tracer.empty", _noop)
        durations = sorted(stop - start for _, _, start, stop, _, _ in self.raw)
        self.totals.clear()
        self.raw.clear()
        self.spans = 0
        return float(durations[len(durations) // 2])

    def begin(self, name: str) -> None:
        self.spans += 1
        self._open.append([self.spans, name, _now(), 0])

    def end(self, name: str | None = None, items: int = 1) -> None:
        """Close the innermost span; ``name`` renames it (for classification after the call)."""
        span_id, opened_as, start, child_ns = self._open.pop()
        stop = _now()
        duration = stop - start
        name = name or opened_as
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += items
        entry[2] += duration
        entry[3] += duration - child_ns
        if len(self.raw) < KEEP_SPANS:
            self.raw.append((span_id, name, start, stop, parent[0] if parent else None, self.job))

    def call(self, name: str, fn, *args, items: int = 1):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(items=items)

    # -- aggregates -------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry[0] if entry else 0

    def total_ns(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry[2] if entry else 0

    def self_us_per_item(self, name: str) -> float:
        """Self time per item in microseconds, net of the tracer's empty-span cost."""
        entry = self.totals.get(name)
        if not entry or not entry[1]:
            return float("nan")
        return (entry[3] - entry[0] * self.empty_ns) / entry[1] / 1e3

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "empty_span_ns": self.empty_ns,
                    "spans_recorded": self.spans,
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "job"],
                    "spans": self.raw,
                    "totals": self.totals,
                },
                fh,
            )
