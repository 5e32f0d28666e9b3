"""Span tracing from outside the library: timers rebound around public methods.

A :class:`Tracer` replaces chosen methods, on the class that defines each
one, with a wrapper that records a span per call: which layer and operation,
how long it took, and how much of that time its child spans covered.  Every
subclass definition of a method is wrapped in place, so a comparison such as
``type(adversary).next_elements is Adversary.next_elements`` (the game
runner's test for a segmented adversary) gives the same answer traced and
untraced: the traced run cannot take another path.  :meth:`Tracer.uninstall`
puts every original back.

Per layer and operation the tracer keeps:

* ``spans`` — every call;
* ``calls``, ``busy`` and ``units`` — calls, time and an operation-specific
  count (elements ingested, sample views received, taken from the call's
  arguments) of the spans not nested in a span of the same operation, so a
  ``merge`` reached through ``sample`` still counts once;
* ``layer_units`` — the same count over spans not nested in any span of
  their own layer (a sampler ``extend`` that loops over ``process`` offers
  its elements once);
* ``self_time`` — span time minus the time of its direct children, so a
  wrapper's own work is separable from its callees';
* ``raised`` — calls that ended in an exception;
* ``parents`` — spans per direct parent, keyed ``"<layer>.<op>"``.

Per layer the tracer also keeps the time of spans not nested in another span
of that layer (``layer_busy``), the layer's busy time without double
counting.

State is kept per thread, so the service's reader thread and writer thread
never share a stack.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable
from typing import Any

Measure = Callable[[tuple[Any, ...]], int]
LayerOf = Callable[[Any], str]


class OpStats:
    """Accumulated spans of one ``(layer, op)`` pair."""

    __slots__ = ("busy", "calls", "layer_units", "parents", "raised", "self_time", "spans", "units")

    def __init__(self) -> None:
        self.spans = 0
        self.calls = 0
        self.busy = 0.0
        self.units = 0
        self.layer_units = 0
        self.self_time = 0.0
        self.raised = 0
        self.parents: dict[str, int] = {}

    def add(self, other: OpStats) -> None:
        self.spans += other.spans
        self.calls += other.calls
        self.busy += other.busy
        self.units += other.units
        self.layer_units += other.layer_units
        self.self_time += other.self_time
        self.raised += other.raised
        for key, count in other.parents.items():
            self.parents[key] = self.parents.get(key, 0) + count


class _ThreadState:
    def __init__(self) -> None:
        # Open spans, innermost last: [layer, op, child_time].
        self.stack: list[list[Any]] = []
        self.depth: dict[Any, int] = {}
        self.stats: dict[tuple[str, str], OpStats] = {}
        self.layer_busy: dict[str, float] = {}

    def op(self, layer: str, op: str) -> OpStats:
        key = (layer, op)
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = OpStats()
        return stats


def all_subclasses(root: type) -> list[type]:
    """``root`` and every class derived from it, each once."""
    seen: list[type] = []
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def sized(position: int) -> Measure:
    """Measure: ``len`` of positional argument ``position`` (0 if unsized)."""

    def measure(args: tuple[Any, ...]) -> int:
        if len(args) <= position:
            return 0
        value = args[position]
        return len(value) if hasattr(value, "__len__") else 0

    return measure


def one(_args: tuple[Any, ...]) -> int:
    return 1


def given(position: int) -> Measure:
    """Measure: 1 when positional argument ``position`` is present and not None."""

    def measure(args: tuple[Any, ...]) -> int:
        return int(len(args) > position and args[position] is not None)

    return measure


class Tracer:
    """Installs span wrappers, collects per-thread statistics, restores."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def call(
        self,
        layer: str,
        op: str,
        func: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        units: int = 0,
    ) -> Any:
        """Run ``func(*args, **kwargs)`` inside a span of ``layer.op``."""
        state = self._state()
        stack = state.stack
        depth = state.depth
        key = (layer, op)
        parent = stack[-1] if stack else None
        outer_layer = depth.get(layer, 0) == 0
        outer_op = depth.get(key, 0) == 0
        frame = [layer, op, 0.0]
        stack.append(frame)
        depth[layer] = depth.get(layer, 0) + 1
        depth[key] = depth.get(key, 0) + 1
        start = time.perf_counter()
        raised = False
        try:
            return func(*args, **kwargs)
        except BaseException:
            raised = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            depth[layer] -= 1
            depth[key] -= 1
            stats = state.op(layer, op)
            stats.spans += 1
            stats.self_time += elapsed - frame[2]
            stats.raised += raised
            if outer_op:
                stats.calls += 1
                stats.busy += elapsed
                stats.units += units
            if outer_layer:
                stats.layer_units += units
                state.layer_busy[layer] = state.layer_busy.get(layer, 0.0) + elapsed
            if parent is not None:
                parent[2] += elapsed
                parent_key = f"{parent[0]}.{parent[1]}"
                stats.parents[parent_key] = stats.parents.get(parent_key, 0) + 1

    def thread_busy(self, layer: str, op: str) -> float:
        """Busy time of ``layer.op`` recorded so far on the calling thread."""
        stats = self._state().stats.get((layer, op))
        return 0.0 if stats is None else stats.busy

    def totals(self) -> tuple[dict[tuple[str, str], OpStats], dict[str, float]]:
        """Every thread's statistics summed: per ``(layer, op)``, and layer busy time."""
        merged: dict[tuple[str, str], OpStats] = {}
        layer_busy: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, stats in state.stats.items():
                merged.setdefault(key, OpStats()).add(stats)
            for layer, busy in state.layer_busy.items():
                layer_busy[layer] = layer_busy.get(layer, 0.0) + busy
        return merged, layer_busy

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _wrap(self, func: Callable[..., Any], layer_of: LayerOf, op: str, measure: Measure):
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(layer_of(args[0]), op, func, args, kwargs, measure(args))

        return traced

    def wrap_methods(
        self,
        root: type,
        name: str,
        layer_of: LayerOf,
        op: str,
        measure: Measure,
    ) -> None:
        """Wrap ``name`` on ``root`` and on every subclass that defines it."""
        for cls in all_subclasses(root):
            original = cls.__dict__.get(name)
            if original is None or isinstance(original, (staticmethod, classmethod)):
                continue
            if isinstance(original, property):
                assert original.fget is not None
                wrapped: Any = property(
                    self._wrap(original.fget, layer_of, op, measure),
                    original.fset,
                    original.fdel,
                    original.__doc__,
                )
            elif callable(original):
                wrapped = self._wrap(original, layer_of, op, measure)
            else:
                continue
            self._restore.append((cls, name, original))
            setattr(cls, name, wrapped)

    def wrap_function(self, module: Any, name: str, layer: str, op: str) -> None:
        """Wrap the module-level function ``module.name`` in a ``layer.op`` span."""
        original = getattr(module, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(layer, op, original, args, kwargs)

        self._restore.append((module, name, original))
        setattr(module, name, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def fixed(layer: str) -> LayerOf:
    return lambda _self: layer

