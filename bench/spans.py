"""In-memory spans around the benchmark's calls into pjo, and their statistics.

A span records name, start, end (``perf_counter_ns``), the span that was
open when it started, and the operation it belongs to.  Spans stay in
memory and are written out once, at the end of a traced run.  Untraced runs
use ``NullTracer``, whose ``call`` is a plain call, so end-to-end numbers
carry no tracing cost.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns


class NullTracer:
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, **attrs):
        return nullcontext(attrs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: int | None = None
        self.tags: dict = {}  # merged into every span, e.g. the sweep size

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "name": name,
            **self.tags,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start_ns"] = perf_counter_ns()
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end_ns"] = perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        if isinstance(result, str):
            record["bytes"] = len(result.encode("utf-8"))
        return result

    def select(self, name: str, **match) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def durations_ns(self, name: str, **match) -> list[int]:
        return [s["end_ns"] - s["start_ns"] for s in self.select(name, **match)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, ensure_ascii=False) + "\n")


def p50(values):
    return statistics.median(values)


def p90(values):
    """The 90th percentile; callers keep at least ten samples beyond it."""
    return statistics.quantiles(values, n=10)[8]


def loglog_slope(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
