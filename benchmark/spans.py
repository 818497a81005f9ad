"""Spans around calls that the program makes through module attributes.

A `Tracer` replaces a module attribute (``nlpg.driver.solve_mixed``, say) by
a wrapper that opens a span, calls the original and closes the span.  Only
calls made through that attribute are seen, so each layer is wrapped at the
module that calls it.  A wrapper may also carry an observer: a function of
the call's result and arguments that the benchmark uses for its checks.
Observer time is measured and left out of every span's duration, so the
checks cost the measured study nothing.
"""

import functools
import time
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """Records spans (name, start, end, parent) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._observe_s = 0.0  # observer seconds so far, subtracted from spans

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span; yields the span's record."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": clock(), "observe_s": self._observe_s}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = clock()
            span["observe_s"] = self._observe_s - span["observe_s"]
            self._stack.pop()

    def wrap(self, module, attr, name, observe=None):
        """Replace ``module.attr`` by a spanned call; see the module docstring."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = original(*args, **kwargs)
            if observe is not None:
                t0 = clock()
                try:
                    observe(out, *args, **kwargs)
                finally:
                    tracer._observe_s += clock() - t0
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self):
        """Put every wrapped attribute back, last wrapped first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def net_seconds(span):
    """Span duration without the observer time spent inside it."""
    return span["end"] - span["start"] - span["observe_s"]


def self_seconds(spans):
    """Self seconds per span name: net duration minus the children's."""
    own = {s["id"]: net_seconds(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= net_seconds(s)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals
