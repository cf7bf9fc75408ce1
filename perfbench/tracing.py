"""In-memory spans recorded around the benchmark's calls into the library.

A span holds its name, start, end, the span open when it began (its
parent) and the operation id shared by every span of one query or job.
Spans are only recorded in traced runs and are written out once, when the
run ends. Self time is a span's duration minus the time its direct child
spans cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self._open: list[int] = []
        self.op = 0

    def next_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        def spanned(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out
        return spanned

    @contextmanager
    def instrument(self, obj, method: str, name: str,
                   on_result: Optional[Callable] = None):
        """Record a span around every call of ``obj.method`` while active.

        The wrapper is an instance attribute, so library code that calls the
        method through this object is traced too; it is removed on exit.
        """
        setattr(obj, method, self.wrap(getattr(obj, method), name, on_result))
        try:
            yield
        finally:
            delattr(obj, method)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            cell = out[name]
            cell[0] += 1
            cell[1] += end - start
            cell[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
