"""Spans around vcterm's public functions, recorded from outside the package.

A Tracer replaces each traced function with a wrapper in every vcterm
module that holds a reference to it (cli, experiments and bandwidth bind
the functions by name at import time), and puts the originals back on
uninstall. Each call records (id, parent, name, phase, thread, start, end);
the parent is the innermost open span of the calling thread. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def count(self, key, value=1):
        """Add to a counter; safe from the study's worker threads."""
        with self._lock:
            self.counts[(self.phase, key)] += value

    def peak(self, key, value):
        with self._lock:
            self.counts[(self.phase, key)] = max(self.counts[(self.phase, key)], value)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        return _Span(self, name)

    def wrap(self, fn, name, on_result=None):
        """A wrapper that records one span per call and passes the result,
        the call's arguments and its duration so far to
        on_result(tracer, result, args, kwargs, elapsed)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result, args, kwargs, time.perf_counter() - span.start)
                return result

        return traced

    def install(self, targets):
        """targets: (module, attribute, span name, on_result) tuples."""
        for module, attr, name, on_result in targets:
            original = getattr(module, attr)
            traced = self.wrap(original, name, on_result)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "vcterm" and not mod_name.startswith("vcterm."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def self_times(self, phase=None):
        """Per span name: (total self seconds, call count).

        Self time is a span's duration minus the durations of its direct
        children; children run in the parent's thread, so they never overlap.
        """
        child_time = defaultdict(float)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        calls = Counter()
        for sid, _, name, span_phase, _, start, end in self.spans:
            if phase is not None and span_phase != phase:
                continue
            totals[name] += (end - start) - child_time[sid]
            calls[name] += 1
        return totals, calls

    def command_coverage(self, prefix="cli."):
        """(name, duration, covered fraction) of each top-level command span."""
        child_time = defaultdict(float)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = []
        for sid, parent, name, _, _, start, end in self.spans:
            if parent is None and name.startswith(prefix):
                duration = end - start
                out.append((name, duration, child_time[sid] / duration))
        return out

    def dump(self):
        keys = ("id", "parent", "name", "phase", "thread", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.parent, self.name, self.tracer.phase,
                                  threading.get_ident(), self.start, end))
        return False
