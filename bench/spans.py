"""Span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, pass_id]``; spans stay in memory and
are written out when the run ends.  The untraced run uses ``NullRecorder``,
whose ``wrap`` hands back the library function itself, so untraced passes
call the library with nothing in between.

Span names are metric names: ``self_times`` sums each span's duration minus
the time its child spans cover, per pass and per name.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.pass_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.pass_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def counted(self, name: str, fn):
        """``fn`` with a call counter and no span, for calls too frequent
        and too short to time one by one."""
        def counting(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)
        return counting

    def add(self, name: str, n: float):
        bucket = self.counts.setdefault(self.pass_id, {})
        bucket[name] = bucket.get(name, 0) + n

    def patch(self, owner, attr: str, name: str, count_only=False):
        """Replace ``owner.attr`` (a module function, a class or a method
        another library function calls) by its traced version."""
        original = getattr(owner, attr)
        self.replace(owner, attr, self.counted(name, original) if count_only
                     else self.wrap(name, original))

    def replace(self, owner, attr: str, value):
        """Set ``owner.attr`` until ``unpatch``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, dict[str, float]]:
        """{pass_id: {span name: total self time}}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            bucket = out.setdefault(pid, {})
            bucket[name] = bucket.get(name, 0.0) + (end - start) - covered[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)
            fh.write("\n")


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.idx = self.rec._open(self.name)
        return self

    def __exit__(self, *exc):
        self.rec._close(self.idx)
        return False


class NullRecorder:
    """Tracing off: no spans, no counters, library functions unwrapped."""

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn

    def add(self, name: str, n: float):
        pass
