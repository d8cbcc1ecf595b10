"""Span tracer that wraps public entry points from outside the program.

A ``Tracer`` replaces each target attribute (a module function or a class
method) with a wrapper that records a span ``[name, start, end, parent,
child_time]``.  Spans live in memory until a span at depth 0 or 1 closes (a
batch, or one repetition inside it); that subtree is then reduced to call
counts, total time and self time per name, so memory stays bounded by one
repetition.  Self time is a span's duration minus the time its child spans
cover.

Use it as a context manager: the wrappers exist only inside the ``with``
block, and ``wrapped(targets)`` names the targets that hold one right now.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Sequence

# (owner, attribute, span name, optional size function of the call arguments)
Target = tuple[Any, str, str, "Callable[..., int] | None"]


class Tracer:
    def __init__(self, targets: Sequence[Target]):
        self._targets = list(targets)
        self._originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in targets}
        self._spans: list[list] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.size_sum: dict[str, int] = defaultdict(int)
        self.reduce_s = 0.0  # tracer's own time spent folding spans

    def __enter__(self) -> "Tracer":
        if wrapped(self._targets):
            raise RuntimeError("a target is already wrapped")
        for owner, attr, name, size in self._targets:
            setattr(owner, attr, self._wrap(name, self._originals[(owner, attr)], size))
        return self

    def __exit__(self, *exc: object) -> None:
        for (owner, attr), fn in self._originals.items():
            setattr(owner, attr, fn)
        self._spans.clear()
        self._stack.clear()

    def _wrap(self, name: str, fn: Callable, size: Callable[..., int] | None) -> Callable:
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        size_sum = self.size_sum

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size is not None:
                size_sum[name] += size(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if len(stack) <= 1:
                    self._reduce(index)

        wrapper.trace_span = name
        return wrapper

    def _reduce(self, first: int) -> None:
        """Fold the closed subtree spans[first:] into the per-name totals.

        Children follow their parent in the list, so a reverse pass has every
        child's duration added to its parent before the parent is folded.
        """
        started = time.perf_counter()
        spans = self._spans
        for i in range(len(spans) - 1, first - 1, -1):
            name, start, end, parent, child = spans[i]
            duration = end - start
            if parent >= 0:
                spans[parent][4] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child
        del spans[first:]
        self.reduce_s += time.perf_counter() - started


def wrapped(targets: Sequence[Target]) -> list[str]:
    """Span names of the targets that currently hold a tracer wrapper."""
    return [name for owner, attr, name, _ in targets if hasattr(vars(owner)[attr], "trace_span")]
