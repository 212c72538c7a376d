"""In-memory span tracer that instruments a library from the outside.

``Tracer.span`` replaces an attribute of a module or class with a timing shim
and ``Tracer.count`` with a counting shim; ``Tracer.restore`` puts every
original back. Nothing in the traced library changes.

Each span is ``[name, start, end, parent]`` where ``parent`` is the index of
the enclosing span, or -1 at the top. A span's index is taken when it starts,
so a parent always has a lower index than its children. A counted call stores
only the index of the span it ran in: hot tiny calls are counted, not timed.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counted: dict[str, list[int]] = {}
        self.tally: Counter = Counter()   # free-form counters fed by hooks
        self.stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- instrumentation ------------------------------------------------------

    def span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``before(args, kwargs)`` runs before the span starts and
        ``after(result)`` after it ends on a normal return.
        """
        spans, stack, clock = self.spans, self.stack, self.clock

        def make(fn):
            def shim(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                rec = [name, clock(), 0.0, stack[-1]]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if after is not None:
                    after(result)
                return result
            return shim

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under ``name``, with its parent span."""
        parents = self.counted.setdefault(name, [])
        stack = self.stack

        def make(fn):
            def shim(*args, **kwargs):
                parents.append(stack[-1])
                return fn(*args, **kwargs)
            return shim

        self._patch(owner, attr, make)

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {calls, self_s, total_s, p50_us}}`` for spans, and
        ``{name: {calls}}`` for counted calls."""
        durations: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            durations.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + own
        out = {name: {"calls": len(d), "self_s": self_s[name],
                      "total_s": sum(d), "p50_us": statistics.median(d) * 1e6}
               for name, d in durations.items()}
        for name, parents in self.counted.items():
            out[name] = {"calls": len(parents)}
        return out

    def counted_under(self, name: str, ancestors: set[str]) -> int:
        """Counted calls of ``name`` made inside a span named in ``ancestors``."""
        inside: list[bool] = []
        for span_name, _, _, parent in self.spans:
            inside.append(span_name in ancestors
                          or (parent >= 0 and inside[parent]))
        return sum(1 for p in self.counted.get(name, ()) if p >= 0 and inside[p])
