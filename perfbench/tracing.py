"""Spans around the calls into each layer, recorded from outside the package.

A :class:`Tracer` replaces a public name with a timing wrapper at the place
the caller looks it up at call time (``ionsampler.pipeline.measure_mode``
for the pipeline's detect stage, say) and puts the original back in
:meth:`Tracer.restore`.  Spans stay in memory as
``[name, start, end, parent, iteration, size]`` lists and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, size) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration, size])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``size(*args)`` may give a number to store with each span, such as
        the order of a permanent.  A name the owner no longer has is left
        alone: the layer is simply not called any more.
        """
        raw = owner.__dict__.get(attr)
        if raw is None:
            return
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        args_offset = 1 if is_classmethod else 0

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name, size(*args[args_offset:]) if size else None)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        self._patched.append((owner, attr, raw))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def iteration_spans(self, iteration: int) -> list[list]:
        return [s for s in self.spans if s[4] == iteration]

    def self_time(self, names, iteration: int) -> float:
        """Summed duration of the named spans minus the time their direct
        children cover."""
        own = [k for k, s in enumerate(self.spans) if s[4] == iteration and s[0] in names]
        children = {}
        for s in self.spans:
            if s[3] is not None:
                children[s[3]] = children.get(s[3], 0.0) + s[2] - s[1]
        return sum(self.spans[k][2] - self.spans[k][1] - children.get(k, 0.0) for k in own)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "iteration", "size"],
                       "spans": self.spans}, fh)
