"""In-memory spans around the benchmark's calls into vcbent.

A span records its name, start, end, parent span and op id.  Spans stay in
memory while the run measures and are written out once at the end.  A
disabled tracer hands out one shared no-op context, so the untraced run
pays a single method call per span.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else None
        t.spans.append([self.name, perf_counter(), None, parent, t.op_id])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t.stack.pop()
        return False


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, op id]."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time summed per span name over spans[first:last].

        A span's self time is its duration minus the part of it that its
        child spans cover.
        """
        spans = self.spans[first:last]
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )
