"""In-memory span recorder that wraps library functions from the outside.

A wrapped call opens a span, runs the original function and closes the span.
Spans are folded as they close into one record per name (calls, total time,
self time, counters) and one record per (parent, name) edge, because the
oracle layer makes ~10^5 calls per round and a list of raw spans would not
fit in a small container.  Self time is the span's duration minus the time
its child spans cover.  The recorder follows one thread: traced runs drive
the library from the main thread only.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = "<root>"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        for key, value in other.counters.items():
            self.count(key, value)


Hook = Callable[[SpanStats, tuple, dict, Any], None]
Prepare = Callable[[tuple, dict], dict]


class Tracer:
    """Patches attributes of modules or classes with span-recording wrappers.

    `stats` and `edges` are the sinks the wrappers currently write to; the
    caller swaps them to keep set-up and timed work apart.  Tracing must
    never change what the library returns, so a binding the library no
    longer has is skipped and a counter hook that raises is ignored; both
    are listed in `problems`.
    """

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple[str, str], SpanStats] = {}
        self.problems: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Hook | None = None,
        prepare: Prepare | None = None,
    ) -> None:
        """Record spans named `name` around every call through owner.attr."""
        if not self.has(owner, attr):
            return
        wrapped = self.wrap(name, getattr(owner, attr), hook, prepare)
        # a class attribute (Graph.from_adj) is looked up through the class,
        # which would bind a plain function as a method
        self.replace(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)

    def count_yields(self, owner: Any, attr: str, name: str) -> None:
        """Count the items a generator function yields, without a span."""
        if not self.has(owner, attr):
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counting(*args: Any, **kwargs: Any):
            for item in original(*args, **kwargs):
                self._record(name).calls += 1
                yield item

        self.replace(owner, attr, counting)

    def has(self, owner: Any, attr: str) -> bool:
        if attr in owner.__dict__:
            return True
        self.problems.add(f"{owner.__name__}.{attr} is absent, not traced")
        return False

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _record(self, name: str) -> SpanStats:
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = SpanStats()
        return rec

    def wrap(
        self,
        name: str,
        fn: Callable,
        hook: Hook | None = None,
        prepare: Prepare | None = None,
    ) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)  # keeps the signature, for hooks that bind arguments
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if prepare is not None:
                kwargs = prepare(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                rec = tracer._record(name)
                rec.calls += 1
                rec.total_s += duration
                rec.self_s += duration - frame[1]
                key = (parent[0] if parent is not None else ROOT, name)
                edge = tracer.edges.get(key)
                if edge is None:
                    edge = tracer.edges[key] = SpanStats()
                edge.calls += 1
                edge.total_s += duration
            if hook is not None:
                try:
                    hook(tracer._record(name), args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.problems.add(f"{name} counters off: {exc!r}")
            return result

        return wrapper


def merge_into(target: dict, source: dict) -> None:
    for key, rec in source.items():
        target.setdefault(key, SpanStats()).merge(rec)


def top_level_s(edges: dict[tuple[str, str], SpanStats]) -> float:
    """Time covered by spans that have no parent span."""
    return sum(rec.total_s for (parent, _), rec in edges.items() if parent == ROOT)
