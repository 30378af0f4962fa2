"""In-memory spans for the traced benchmark run.

A span is (id, name, parent id, start, end) and covers one call the benchmark
makes into a layer.  Inside a design the construction calls the rate oracle
about a million times, so those calls are not kept one by one: they are
aggregated per (span, caller, callee) into a count, a total time and the time
their own traced children took, which is enough to derive self time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from simo_energy import RateOracle

RATE_METHODS = ("rate_right", "rate_left", "inverse_rate")


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # ids of the spans that are open, innermost last
        # Open traced calls, innermost last: [name, start, time in children].
        # Inside a span the first frame stands for the span itself.
        self._frames = []
        self._calls = {}  # (span id, caller, callee) -> [count, total_s, children_s]

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        outer_frames = self._frames
        self._frames = [[name, record["start"], 0.0]]
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            # Time spent inside traced calls made directly from this span.
            record["calls_s"] = self._frames[0][2]
            self._frames = outer_frames
            self._open.pop()

    def enter(self, name: str) -> None:
        self._frames.append([name, perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, children = self._frames.pop()
        elapsed = perf_counter() - start
        caller = self._frames[-1]
        caller[2] += elapsed
        key = (self._open[-1], caller[0], name)
        agg = self._calls.get(key)
        if agg is None:
            self._calls[key] = [1, elapsed, children]
        else:
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += children

    def calls(self, span_id: int) -> list:
        """Aggregated calls below one span: dicts of name, caller, count, total_s, self_s."""
        return [
            {"name": name, "caller": caller, "count": c, "total_s": t, "self_s": t - ch}
            for (sid, caller, name), (c, t, ch) in self._calls.items()
            if sid == span_id
        ]

    def write(self, path: Path) -> None:
        calls = [
            {"span": sid, "caller": caller, "name": name, "count": c, "total_s": t, "self_s": t - ch}
            for (sid, caller, name), (c, t, ch) in self._calls.items()
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "calls": calls}, indent=1) + "\n")


class TracedOracle(RateOracle):
    """RateOracle that records its construction and every public evaluation.

    It only wraps the inherited methods, so every value it returns is the
    value the plain oracle returns.
    """

    def __init__(self, tracer: Tracer, channel, sigma2: float, p: float):
        self._tracer = tracer
        tracer.enter("build_oracle")
        try:
            super().__init__(channel, sigma2, p)
        finally:
            tracer.leave()

    def log_mgf(self, theta):
        self._tracer.enter("log_mgf")
        try:
            return super().log_mgf(theta)
        finally:
            self._tracer.leave()

    def rate_right(self, d):
        self._tracer.enter("rate_right")
        try:
            return super().rate_right(d)
        finally:
            self._tracer.leave()

    def rate_left(self, d):
        self._tracer.enter("rate_left")
        try:
            return super().rate_left(d)
        finally:
            self._tracer.leave()

    def inverse_rate(self, side, t):
        self._tracer.enter("inverse_rate")
        try:
            return super().inverse_rate(side, t)
        finally:
            self._tracer.leave()


def design_summary(tracer: Tracer, record: dict) -> dict:
    """Counts and self times of one traced design span.

    The rate layer's self time covers oracle construction and the three rate
    methods without the log-MGF evaluations they make; the construction's
    self time is the span minus every oracle call made directly from it.
    """
    calls = tracer.calls(record["id"])
    count = lambda names: sum(c["count"] for c in calls if c["name"] in names)  # noqa: E731
    return {
        "oracles_built": count(("build_oracle",)),
        "log_mgf_calls": count(("log_mgf",)),
        "rate_calls": count(RATE_METHODS),
        "per_method": {name: count((name,)) for name in ("log_mgf", "build_oracle") + RATE_METHODS},
        "rates_self_s": sum(
            c["self_s"] for c in calls if c["name"] in RATE_METHODS + ("build_oracle",)
        ),
        "construct_self_s": (record["end"] - record["start"]) - record["calls_s"],
    }
