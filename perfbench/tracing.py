"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by the benchmark's own code around public peelsim calls,
never inside the program.  A span holds its name (``<layer>.<call>``), start
and end (``time.perf_counter`` seconds), the index of the span that was open
when it began, and the trial id current at that moment.  Work a wrapper does
after the call returns (reading counts off the result) is charged as
``glue`` to the parent span, so layer self times never include the tracer's
own bookkeeping.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

NAME, START, END, PARENT, TRIAL, GLUE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trial = None
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None, new_trial=False):
        """Return fn wrapped in a span; after(result) runs outside the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if new_trial:
                self.trial = 0 if self.trial is None else self.trial + 1
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.trial, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(result)
                if parent >= 0:
                    spans[parent][GLUE] += clock() - span[END]
            return result

        return traced

    def durations(self, name) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def by_trial(self, name) -> dict:
        """Duration of each span called name, keyed by its trial id."""
        return {s[TRIAL]: s[END] - s[START] for s in self.spans if s[NAME] == name}

    def self_time(self, name) -> float:
        """Total self time of the spans called name."""
        return sum(own for s, own in zip(self.spans, self.self_times()) if s[NAME] == name)

    def self_times(self) -> list[float]:
        """Per span: duration minus direct children's durations and glue."""
        own = [s[END] - s[START] - s[GLUE] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_self(self) -> dict[str, float]:
        """Self time per layer; the tracer's own bookkeeping is layer 'trace'."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            out[s[NAME].split(".", 1)[0]] += own
            out["trace"] += s[GLUE]
        return dict(out)

    def dump(self, path):
        """Write spans as JSON lines: name, start, end, parent, trial."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:GLUE]) + "\n")
