"""Nested ``perf_counter`` spans recorded around calls into each layer.

The traced run attributes wall-clock time from outside the program: it
replaces public callables of ``repro`` (module functions, class methods,
the ``MPCEngine.phase`` context manager) with thin wrappers that open a
span, calls the original, and closes the span.  :func:`installed`
restores every replaced attribute on exit, so an untraced answer always
runs the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    parent: "int | None"
    end: float = 0.0
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.seconds - self.child_seconds


class Tracer:
    """Records the spans of one answer, in opening order."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: "list[Span]" = []
        self._open: "list[int]" = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span.

        A call re-entering the layer that is already innermost (an
        override calling its base method) stays inside the one span.
        """
        if self._open and self.spans[self._open[-1]].name == name:
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(index)
        try:
            yield
        finally:
            span = self.spans[index]
            span.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_seconds += span.seconds

    def wrap(self, name: str, func):
        """``func`` with every call recorded as a span named ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def wrap_phase(self, names: "dict[str, str]", phase):
        """Wrap the ``MPCEngine.phase`` context manager: a phase whose name
        is a key of ``names`` is recorded as the span ``names[name]``."""

        @contextlib.contextmanager
        @functools.wraps(phase)
        def traced(engine, name):
            label = names.get(name)
            with self.span(label) if label else contextlib.nullcontext():
                with phase(engine, name) as entered:
                    yield entered

        return traced

    def totals(self) -> "dict[str, tuple[float, float, int]]":
        """``name -> (seconds, self seconds, calls)`` summed over spans."""
        out: "dict[str, tuple[float, float, int]]" = {}
        for span in self.spans:
            seconds, self_seconds, calls = out.get(span.name, (0.0, 0.0, 0))
            out[span.name] = (
                seconds + span.seconds,
                self_seconds + span.self_seconds,
                calls + 1,
            )
        return out

    def root_seconds(self) -> float:
        """Total duration of the spans opened outside any other span."""
        return sum(s.seconds for s in self.spans if s.parent is None)

    def to_json(self) -> "list[dict]":
        """The span list, start times relative to the tracer's creation."""
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "start_s": s.start - self.origin,
                "seconds": s.seconds,
                "self_seconds": s.self_seconds,
            }
            for s in self.spans
        ]


@contextlib.contextmanager
def installed(targets):
    """Install wrappers for ``(owner, attribute, make_wrapper)`` targets.

    ``owner`` is a module or class holding ``attribute`` in its own
    namespace; ``make_wrapper(original)`` returns the replacement.  Every
    attribute replaced so far is restored on exit, error or not.
    """
    saved = []
    try:
        for owner, attribute, make_wrapper in targets:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, make_wrapper(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
