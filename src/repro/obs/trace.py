"""Structured event tracing for both simulation engines.

Aggregate metrics say *how the network did*; a trace says *what
happened, in order*.  Every instrumented component — the engines, the
battery lifespan-aware MAC, the degradation service, the battery model,
the software-defined switch, and the fault injector — publishes typed
:class:`TraceEvent` records onto one :class:`TraceBus` per run.  The bus
keeps a bounded ring buffer for in-process inspection and can stream
every retained event to a JSONL sink for offline analysis
(``repro trace`` pretty-prints and filters those files).

The design goal is **zero overhead when disabled**: components hold a
``None`` bus reference and guard every emission with a single ``is not
None`` check, so runs without tracing execute the exact pre-
instrumentation code path (and stay bit-identical for a given seed).
Hot-path events are emitted at DEBUG severity so a bus configured at
INFO skips them with one integer comparison.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from ..exceptions import ConfigurationError

#: Severity names in increasing order of importance.
SEVERITIES: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: The event taxonomy (see docs/OBSERVABILITY.md for the full schema).
CATEGORIES: Tuple[str, ...] = (
    "packet",  # packet lifecycle: generated / attempt / finished / dropped
    "window",  # Algorithm 1 decisions with per-window DIF/utility scores
    "energy",  # software-defined-switch events (brown-outs)
    "battery",  # degradation refreshes (Eq. 4 outputs, cycle/calendar split)
    "wu",  # w_u dissemination, reception, staleness decay
    "fault",  # fault-injector firings and recovery-path outcomes
    "engine",  # run phases, refreshes, and other engine-level markers
    "perf",  # hot-path timings (degradation refresh wall time per pass)
)


def severity_level(name: str) -> int:
    """Numeric level of a severity name (raises on unknown names)."""
    try:
        return SEVERITIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown severity {name!r}; expected one of {sorted(SEVERITIES)}"
        ) from None


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation published during a run.

    ``category`` buckets events for filtering; ``name`` is the specific
    event type (dotted, category-prefixed, e.g. ``packet.finished``);
    ``fields`` carries the event's typed payload.
    """

    time_s: float
    category: str
    name: str
    severity: str = "info"
    node_id: Optional[int] = None
    fields: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Flat dict form (the JSONL schema)."""
        record: Dict[str, object] = {
            "time_s": self.time_s,
            "category": self.category,
            "name": self.name,
            "severity": self.severity,
        }
        if self.node_id is not None:
            record["node_id"] = self.node_id
        if self.fields:
            record["fields"] = dict(self.fields)
        return record

    def to_json(self) -> str:
        """One JSONL line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "TraceEvent":
        """Rebuild an event from its JSONL dict form."""
        return cls(
            time_s=float(record["time_s"]),  # type: ignore[arg-type]
            category=str(record["category"]),
            name=str(record["name"]),
            severity=str(record.get("severity", "info")),
            node_id=(
                None if record.get("node_id") is None else int(record["node_id"])  # type: ignore[arg-type]
            ),
            fields=dict(record.get("fields", {})),  # type: ignore[arg-type]
        )


class JsonlSink:
    """Streams every event to a JSON-lines file.

    The sink owns the file handle; close it (or use the bus as a context
    manager) to flush buffered lines.
    """

    def __init__(
        self, path_or_handle: Union[str, TextIO], append: bool = False
    ) -> None:
        if isinstance(path_or_handle, str):
            mode = "a" if append else "w"
            self._handle: TextIO = open(path_or_handle, mode, encoding="utf-8")
            self._owns_handle = True
            self.path: Optional[str] = path_or_handle
        else:
            self._handle = path_or_handle
            self._owns_handle = False
            self.path = getattr(path_or_handle, "name", None)
        self.written = 0
        self._closed = False

    def __call__(self, event: TraceEvent) -> None:
        self._handle.write(event.to_json())
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        """Flush and (when the sink opened the file) close the handle.

        Idempotent: engines may close once on the error path and again
        in their normal teardown without a double-close error.
        """
        if self._closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class TraceBus:
    """The per-run event bus components publish to.

    Parameters
    ----------
    capacity:
        Ring-buffer bound; past it, the *oldest* events are evicted (the
        tail of a run is usually what is being debugged) and
        :attr:`dropped` counts the evictions.  Sinks still see every
        accepted event before eviction.
    categories:
        Iterable of category names to accept, or None for all of
        :data:`CATEGORIES`.
    min_severity:
        Events below this severity are filtered out before any work.
    sink:
        Optional callable (e.g. a :class:`JsonlSink`) receiving every
        accepted event.
    """

    def __init__(
        self,
        capacity: int = 65_536,
        categories: Optional[Iterable[str]] = None,
        min_severity: str = "debug",
        sink: Optional[Callable[[TraceEvent], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("trace capacity must be >= 1")
        if categories is not None:
            unknown = set(categories) - set(CATEGORIES)
            if unknown:
                raise ConfigurationError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"expected a subset of {list(CATEGORIES)}"
                )
            self._categories: Optional[frozenset] = frozenset(categories)
        else:
            self._categories = None
        self._min_level = severity_level(min_severity)
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._sink = sink
        self.capacity = capacity
        self.dropped = 0
        self.emitted = 0

    # ------------------------------------------------------------- filtering

    def wants(self, category: str, severity: str = "debug") -> bool:
        """Cheap pre-check: would an event of this kind be accepted?

        Components guard *expensive payload construction* (e.g. copying
        per-window score lists) behind this, on top of the ``bus is not
        None`` guard that makes disabled runs free.
        """
        if SEVERITIES.get(severity, 0) < self._min_level:
            return False
        return self._categories is None or category in self._categories

    # -------------------------------------------------------------- emission

    def emit(
        self,
        time_s: float,
        category: str,
        name: str,
        severity: str = "info",
        node_id: Optional[int] = None,
        **fields: object,
    ) -> bool:
        """Publish one event; returns whether it was accepted."""
        if not self.wants(category, severity):
            return False
        event = TraceEvent(
            time_s=time_s,
            category=category,
            name=name,
            severity=severity,
            node_id=node_id,
            fields=fields,
        )
        if self._held is not None:
            self._held.append(event)
        else:
            self._record(event)
        return True

    def _record(self, event: TraceEvent) -> None:
        """Retain an accepted event and pass it to the sink."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.emitted += 1
        if self._sink is not None:
            self._sink(event)

    #: Accepted events collected since :meth:`hold`; None while publishing.
    _held: Optional[List[TraceEvent]] = None

    def hold(self) -> None:
        """Collect accepted events instead of publishing them.

        A batched handler works on a cohort phase by phase; it holds
        what one node emits in an early phase and publishes it at the
        node's slot in a later one, so the stream keeps the order of
        handling one node at a time.
        """
        self._held = []

    def release(self) -> List[TraceEvent]:
        """End :meth:`hold`; returns the collected events, in order."""
        held, self._held = self._held, None
        return held

    def publish(self, events: Iterable[TraceEvent]) -> None:
        """Publish events :meth:`release` returned, in order."""
        for event in events:
            self._record(event)

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the retained (ring-buffered) events, oldest first."""
        return list(self._events)

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        node_id: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Retained events matching every given filter."""
        return [
            e
            for e in self._events
            if (category is None or e.category == category)
            and (name is None or e.name == name)
            and (node_id is None or e.node_id == node_id)
        ]

    def close(self) -> None:
        """Close the sink, if it supports closing (idempotent)."""
        if self._sink is not None:
            closer = getattr(self._sink, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "TraceBus":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------- checkpointing

    def __getstate__(self) -> Dict[str, object]:
        """Pickle everything except the live sink handle.

        A file-backed sink records how many lines it had written; on
        resume, :func:`repro.checkpoint.resume` truncates the JSONL file
        back to that count and reattaches an append-mode sink so the
        resumed run's trace file stays byte-identical to an
        uninterrupted run's.
        """
        state = dict(self.__dict__)
        sink = state.pop("_sink", None)
        if isinstance(sink, JsonlSink) and sink.path is not None:
            state["_sink_written"] = sink.written
            state["_sink_path"] = sink.path
        else:
            state["_sink_written"] = None
            state["_sink_path"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._sink = None


# --------------------------------------------------------------- JSONL tools


def iter_jsonl(path: str) -> Iterator[TraceEvent]:
    """Stream the events of a JSONL trace file, in file order."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            yield TraceEvent.from_dict(json.loads(line))


def filter_events(
    events: Iterable[TraceEvent],
    categories: Optional[Sequence[str]] = None,
    node_id: Optional[int] = None,
    name_substring: Optional[str] = None,
    min_severity: str = "debug",
    since_s: Optional[float] = None,
    until_s: Optional[float] = None,
) -> Iterator[TraceEvent]:
    """Apply the ``repro trace`` command's filters to an event stream."""
    wanted = None if categories is None else set(categories)
    level = severity_level(min_severity)
    for event in events:
        if wanted is not None and event.category not in wanted:
            continue
        if node_id is not None and event.node_id != node_id:
            continue
        if name_substring is not None and name_substring not in event.name:
            continue
        if SEVERITIES.get(event.severity, 0) < level:
            continue
        if since_s is not None and event.time_s < since_s:
            continue
        if until_s is not None and event.time_s > until_s:
            continue
        yield event


def format_event(event: TraceEvent) -> str:
    """One human-readable line per event (the ``repro trace`` output)."""
    node = f"node={event.node_id}" if event.node_id is not None else ""
    payload = " ".join(
        f"{key}={_compact(value)}" for key, value in sorted(event.fields.items())
    )
    parts = [
        f"{event.time_s:14.3f}s",
        f"{event.severity:7s}",
        f"{event.name:28s}",
        f"{node:10s}",
        payload,
    ]
    return " ".join(parts).rstrip()


def _compact(value: object) -> str:
    """Render a payload value tersely (floats trimmed, lists abridged)."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_compact(v) for v in value)
        return f"[{inner}]"
    return str(value)
