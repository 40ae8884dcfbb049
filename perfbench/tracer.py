"""Span tracer that wraps the program's public entry points from outside.

Each wrapped call records a span ``[name, start_ns, end_ns, parent, run_id]``
in memory; ``parent`` is the index of the enclosing span (-1 at the top) and
``run_id`` the pass the span belongs to.  Counters are kept per pass so the
benchmark can check that they repeat exactly.  Nothing under ``src/`` changes:
``install`` swaps module and class attributes and ``uninstall`` restores them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0, parent, self.run_id])
        self._stack.append(idx)
        self.counts[self.run_id][name + ".calls"] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = _clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name: str, count=None):
        """Traced stand-in for ``fn``; ``count(counter, args, kwargs, result)``
        adds work counters after each successful call."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if count is not None:
                count(self.counts[self.run_id], args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a module function or a class's own method,
        static or plain) by its traced version."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, name, count))
        else:
            replacement = self.wrap(original, name, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_methods(self, module, attr: str, name: str, count=None) -> None:
        """Patch ``attr`` on every class of ``module`` that defines it itself."""
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and attr in vars(cls)
            ):
                self.patch(cls, attr, name, count)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,run_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name},{start},{end},{parent},{run_id}\n")


def self_times(spans, run_ids=None) -> dict[str, int]:
    """Nanoseconds per span name spent in the span itself, not in a child:
    each span's duration minus its direct children's.

    Children of one span never overlap (the program is single-threaded), so
    the part of the parent covered by children is the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Counter = Counter()
    for idx, (name, start, end, _, run_id) in enumerate(spans):
        if run_ids is None or run_id in run_ids:
            out[name] += end - start - child_ns[idx]
    return dict(out)
