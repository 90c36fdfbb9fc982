"""Span tracing of chordalrig's public functions, applied from outside.

``Tracer.installed()`` replaces every public function of the traced
modules, in every ``chordalrig`` module namespace that bound it by name,
with a wrapper that records a span; ``Matrix.__mul__`` is wrapped on the
class, and the CLI layer is traced through the click commands' callbacks.
Generator functions get no span of their own: their work runs while a
consumer iterates them, so it lands in the consumer's self time, and only
their calls are counted. Spans are kept in memory and summarised after the
run; nothing is written while ops execute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("graphs", "exactmat", "framework", "certify", "jsonio", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    raised: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its children.

    The tracer runs in one thread, so children of one span never overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


@dataclass
class FunctionStats:
    calls: int = 0
    raised: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def summarise(spans: list[Span], generator_calls: dict[str, int]) -> dict[str, FunctionStats]:
    """Per-function calls, raises, self time and total time.

    Total time sums every span of a function; no traced function calls
    itself, so no interval is counted twice.
    """
    stats: dict[str, FunctionStats] = defaultdict(FunctionStats)
    for s, self_s in zip(spans, self_times(spans)):
        st = stats[s.name]
        st.calls += 1
        st.raised += s.raised
        st.self_s += self_s
        st.total_s += s.end - s.start
    for name, n in generator_calls.items():
        stats[name].calls += n
    return stats


class Tracer:
    """Records spans of the ops run inside ``op(op_id)`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.generator_calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: int | None = None

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self._op)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return wrapper

    def _counting_wrapper(self, name: str, fn):
        counts = self.generator_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._counting_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def _targets(self):
        """(owner, attribute, traced name) for everything to wrap."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "chordalrig"
                                           or name.startswith("chordalrig."))}
        public = {}
        for layer in LAYERS:
            mod = modules[f"chordalrig.{layer}"]
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    public[value] = f"{layer}.{attr}"
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in public:
                    yield mod, attr, public[value]
        matrix = modules["chordalrig.exactmat"].Matrix
        yield matrix, "__mul__", "exactmat.Matrix.__mul__"
        for command in modules["chordalrig.cli"].main.commands.values():
            yield command, "callback", f"cli.{command.callback.__name__}"

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Attribute the spans recorded inside the block to ``op_id``."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()
