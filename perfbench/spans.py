"""In-memory span tracer and the wrappers that feed it.

A span is ``(id, name, start, end, parent, attrs)``.  Spans are kept in a
list and written out once, when the run ends; nothing is written while a
workload is being timed.  The parent of a span is the innermost span open
on the same thread when it started (``-1`` for none).

Wrappers are installed on the name a caller looks up at call time: a
module global that another module imported (``repro.core.smartml.
extract_metafeatures``), or a method on a class.  Patching the defining
module instead would miss every caller that imported the name earlier.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "Span", "load_spans", "self_times", "resolve"]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id, name, start, end, parent, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.attrs]


def resolve(module: str, attr: str):
    """Return ``(owner, name)`` for ``module`` plus a dotted ``attr``.

    ``resolve("repro.kb.knowledge_base", "KnowledgeBase.nominate")`` gives
    the class and ``"nominate"``.
    """
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects spans from wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # Ids start at pid << 32 so spans merged from the benchmark and
        # its server processes never collide.
        self._ids = itertools.count(os.getpid() << 32)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``note(result, args, kwargs)`` may return a dict stored on the span,
        for counts the program returns (configurations evaluated, ...).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = tracer.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                attrs = note(result, args, kwargs) if note is not None else None
                tracer.spans.append(Span(span_id, name, start, end, parent, attrs))

        return traced

    # -------------------------------------------------------------- patches
    def install(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by ``uninstall``).

        ``owner`` is a module or a class.  On a class the raw attribute is
        read without binding, so static and class methods keep their kind,
        and an inherited method is shadowed on ``owner`` only.
        """
        if isinstance(owner, type):
            raw = inspect.getattr_static(owner, attr)
            own = attr in owner.__dict__
        else:
            raw = getattr(owner, attr)
            own = True
        if isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(name, raw.__func__, note))
        elif isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__, note))
        else:
            patched = self.wrap(name, raw, note)
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # --------------------------------------------------------------- output
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s.to_list() for s in self.spans], handle)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and their union is
    subtracted, so overlapping or overhanging children never drive a self
    time below zero.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result
