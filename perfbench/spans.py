"""In-memory spans recorded around calls into echokit, from outside it.

A ``Tracer`` replaces public functions and layer methods with wrappers
that record a span per call (name, start, end, parent, request id and
optional counts) and puts the originals back on ``uninstall``.  Nothing
in ``src/`` changes: the wrappers live in this process only.  Spans stay
in memory until ``write`` is called at the end of a run.

A span's self time is its duration minus the time covered by its direct
children, so the per-layer times under ``value_and_grad`` are not counted
twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

ROOT_PARENT = -1


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def new_request(self) -> None:
        self.request += 1

    def traced(self, fn, name: str, counts=None, new_request: bool = False,
               returns_traced: str | None = None):
        """Wrap *fn* so every call records a span called *name*.

        *counts(args, kwargs, result)* may attach a dict of counts.  With
        *new_request* each call starts a new request id.  With
        *returns_traced* the callable that *fn* returns is wrapped too.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_request:
                tracer.new_request()
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else ROOT_PARENT
            span = Span(name, 0.0, 0.0, parent, tracer.request)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            if returns_traced is not None:
                result = tracer.traced(result, returns_traced)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a traced wrapper, if it exists."""
        if not hasattr(owner, attr):
            return
        self._patches.append((owner, attr, vars(owner).get(attr), attr in vars(owner)))
        setattr(owner, attr, self.traced(getattr(owner, attr), name, **options))

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Trace a module function under every name that binds it.

        Modules that did ``from .x import f`` hold their own reference, so
        each echokit module binding the same object is patched.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("echokit"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, name, **options)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        for owner, attr, own, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, own)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "counts": s.counts,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent != ROOT_PARENT:
            own[s.parent] -= s.duration
    return own

