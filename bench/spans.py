"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the module attributes through which the program looks
its functions up, so the program's own files stay untouched. Each thread
keeps its own span stack. A span opened on a thread whose stack is empty
takes as parent the span that was open on the thread that started it, so
the spans of chunk worker threads hang under the span that launched them.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end")

    def __init__(self, name, thread, parent, start):
        self.name = name
        self.thread = thread
        self.parent = parent  # index into Tracer.spans, or None
        self.start = start
        self.end = start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans and additive counters; install() wraps the targets."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []
        self.failed_hooks: set[str] = set()
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Innermost open span of this thread, else the one that started it."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(threading.current_thread(), "_span_parent", None)

    def open(self, name: str) -> int:
        parent = self.current()
        span = Span(name, threading.get_ident(), parent, self.clock())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        self._stack().append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack().pop()

    # -- counters ----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(value, self.maxima.get(key, value))

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module: str, attr: str, name: str, on_return=None) -> bool:
        """Replace module.attr by a traced wrapper; False if it is gone."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_return is not None:
                try:
                    on_return(tracer, name, args, kwargs, result)
                except Exception:
                    # The call's arguments or result changed shape: its
                    # counters go missing, the run goes on.
                    tracer.failed_hooks.add(name)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def install(self, targets) -> None:
        """Wrap every (module, attr, span name, hook) target.

        A span none of whose sites exists any more is listed in
        ``missing`` instead of failing the run.
        """
        found = defaultdict(bool)
        for module, attr, name, hook in targets:
            found[name] |= self.wrap(module, attr, name, hook)
        self.missing = sorted(name for name, ok in found.items() if not ok)

        original_start = threading.Thread.start
        tracer = self

        def start(thread):
            thread._span_parent = tracer.current()
            original_start(thread)

        threading.Thread.start = start
        self._patches.append((threading.Thread, "start", original_start))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def summarize(self) -> dict:
        """Per span name: calls, busy_s, self_s and wall_s, plus counters.

        busy_s sums span durations over all threads; wall_s is the wall
        time those spans cover, so busy_s > wall_s shows overlap. A span's
        self time is its duration minus the part of its interval that its
        children, on any thread, cover. ``trace.main_self_s`` sums the self
        time of main-thread spans and ``trace.worker_wall_s`` is the wall
        time covered by spans on other threads: together they account for
        the wall time the main thread spent inside traced calls.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[str, float] = defaultdict(float)
        by_name = defaultdict(list)
        worker_intervals = []
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            covered = union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(index, ())
                if c.end > span.start and c.start < span.end
            )
            self_time = duration - covered
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.busy_s"] += duration
            out[f"{span.name}.self_s"] += self_time
            by_name[span.name].append((span.start, span.end))
            if span.thread == self.main_thread:
                out["trace.main_self_s"] += self_time
            else:
                worker_intervals.append((span.start, span.end))
        for name, intervals in by_name.items():
            out[f"{name}.wall_s"] = union_length(intervals)
        out["trace.worker_wall_s"] = union_length(worker_intervals)
        out.update(self.counters)
        for key, value in self.maxima.items():
            out[f"max:{key}"] = value
        return dict(out)
