"""Outside-in span tracer for the benchmark's traced run.

:class:`Tracer` replaces the public functions named in
``perfbench/layers.py`` with wrappers that record one span per call:
layer, start, end and the enclosing span.  Calls are far too many to
keep (hundreds of thousands per kernel), so each span is folded into its
layer's running aggregates — calls, total and self seconds, work counts —
as it ends.  A layer's self time is its span time minus the time its
child spans cover.

Nothing under ``src/`` changes: the wrappers are installed in the
benchmark's child process after ``repro`` is imported and removed again
in any process forked from it (shard workers run unwrapped).  A target
that no longer exists marks its layer absent instead of failing, so the
benchmark still runs after a layer is restructured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

from layers import Layer

_clock = time.perf_counter


class LayerStats:
    """Running aggregates of one layer's spans."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}


def resolve(target: str):
    """Find ``module:attr`` or ``module:Class.method``.

    Returns ``(owner, attribute, original)``; raises ``LookupError`` when
    the module, class or attribute does not exist.
    """
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"module {module_name!r} not importable: {error}") from None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise LookupError(f"{target}: {name!r} not found")
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        raise LookupError(f"{target}: no function {attribute!r}")
    return owner, attribute, original


class Tracer:
    """Wraps layer functions and aggregates their spans."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        #: Layers whose every hook target is missing, with the reasons.
        self.absent: Dict[str, List[str]] = {}
        #: Seconds of top-level spans (no enclosing span), per engine phase.
        self.toplevel_s: Dict[Optional[str], float] = {}
        self.phase: Optional[str] = None
        #: One frame per open span: seconds covered by its child spans.
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self, layers: Iterable[Layer], phase_target: Optional[str] = None) -> None:
        """Wrap every resolvable target; record layers with none as absent."""
        for layer in layers:
            self.stats[layer.name] = LayerStats()
            missing = []
            for target in layer.targets:
                try:
                    owner, attribute, original = resolve(target)
                except LookupError as error:
                    missing.append(str(error))
                    continue
                wrapper = self._wrap(layer.name, original, tuple(layer.counts.items()))
                self._patch(owner, attribute, original, wrapper)
            if len(missing) == len(layer.targets):
                self.absent[layer.name] = missing
        if phase_target is not None:
            try:
                owner, attribute, original = resolve(phase_target)
            except LookupError:
                pass  # spans are then all attributed to phase None
            else:
                self._patch(owner, attribute, original, self._wrap_phase(original))
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer: str, function, counts):
        tracer = self
        stats = self.stats[layer]
        stack = self._stack
        push, pop = stack.append, stack.pop
        toplevel = self.toplevel_s

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            push(frame)
            start = _clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    phase = tracer.phase
                    toplevel[phase] = toplevel.get(phase, 0.0) + elapsed
            for name, count in counts:
                stats.counts[name] = stats.counts.get(name, 0) + count(args, result)
            return result

        return wrapper

    def _wrap_phase(self, phase_method):
        tracer = self

        @functools.wraps(phase_method)
        @contextlib.contextmanager
        def phase(profiler, name):
            with phase_method(profiler, name):
                previous, tracer.phase = tracer.phase, name
                try:
                    yield
                finally:
                    tracer.phase = previous

        return phase

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> Dict[str, float]:
        """Flat ``<layer>.calls`` / ``.self_s`` / ``.<count>`` values."""
        out: Dict[str, float] = {}
        for layer, stats in self.stats.items():
            out[f"{layer}.calls"] = stats.calls
            out[f"{layer}.self_s"] = stats.self_s
            out[f"{layer}.total_s"] = stats.total_s
            for name, value in stats.counts.items():
                out[f"{layer}.{name}"] = value
        return out
