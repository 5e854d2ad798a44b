"""The audit log: an append-only store of change events.

Events arrive two ways. Monitor and service sessions :meth:`record`
one :class:`ChangeEvent` at a time. Batch replay appends one
*segment* per resolved group (:meth:`AuditLog.record_group`): the
member tuple ids, the group's shared event template and per-member
``old`` overrides only where a member's input value differs. A
duplicate-heavy batch run thus stores one transcript per group instead
of one event object per member and cell — the certain-fix registry,
stored compactly. Segment events are materialised lazily, with the
sequence numbers per-event recording would have given them.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.audit.events import SOURCES, ChangeEvent
from repro.errors import ValidationError
from repro.obs import trace as tracing


class _Segment(NamedTuple):
    """One group's events for all its members, member-major: member
    ``i``'s event ``j`` has sequence number ``base + i * len(events) + j``."""

    base: int
    tuple_ids: tuple[str, ...]
    events: tuple[Mapping[str, Any], ...]
    #: (member index, event index) -> that member's ``old``, or None.
    olds: Mapping[tuple[int, int], Any] | None

    @property
    def size(self) -> int:
        """The number of events this segment stands for."""
        return len(self.tuple_ids) * len(self.events)

    def member(self, i: int) -> list[ChangeEvent]:
        """Materialise member ``i``'s events."""
        base = self.base + i * len(self.events)
        tuple_id = self.tuple_ids[i]
        olds = self.olds
        return [
            ChangeEvent(
                seq=base + j,
                tuple_id=tuple_id,
                attr=e["attr"],
                old=olds.get((i, j), e["old"]) if olds else e["old"],
                new=e["new"],
                source=e["source"],
                rule_id=e["rule_id"],
                master_positions=tuple(e["master_positions"]),
                round_no=e["round_no"],
                trace_id=e.get("trace_id"),
                span_id=e.get("span_id"),
            )
            for j, e in enumerate(self.events)
        ]


def _expand(entries: Iterable[ChangeEvent | _Segment]) -> Iterator[ChangeEvent]:
    for entry in entries:
        if isinstance(entry, ChangeEvent):
            yield entry
        else:
            for i in range(len(entry.tuple_ids)):
                yield from entry.member(i)


class AuditLog:
    """Append-only change history with simple secondary views.

    One log typically serves a whole monitoring stream; events carry the
    tuple id, so per-tuple traces and per-attribute statistics are just
    filters over it.

    Thread-safe: the async entry service records events from many
    concurrent sessions into one log, so appends (and the sequence
    numbers they assign) happen under a lock, and every read works over
    an atomic snapshot. Global sequence order then reflects the actual
    interleaving; *per-tuple* order is what the certain-fix semantics
    guarantee (a session is only ever touched by one thread at a time).
    """

    def __init__(self):
        #: Single events and group segments, in sequence order.
        self._entries: list[ChangeEvent | _Segment] = []
        #: tuple id -> its events and (segment, member index) refs, for
        #: the first ``_indexed`` entries (built on first query).
        self._by_tuple: dict[str, list] = {}
        self._indexed = 0
        self._len = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        with self._lock:
            return {"entries": list(self._entries)}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        for entry in state["entries"]:
            self._append(entry)

    def _append(self, entry: ChangeEvent | _Segment) -> None:
        """Append one entry (caller holds the lock)."""
        self._entries.append(entry)
        self._len += 1 if isinstance(entry, ChangeEvent) else entry.size

    def _index(self) -> dict[str, list]:
        """The per-tuple index, caught up with every entry (caller holds
        the lock). A log nobody queries by tuple never builds it."""
        index = self._by_tuple
        for entry in self._entries[self._indexed:]:
            if isinstance(entry, ChangeEvent):
                index.setdefault(entry.tuple_id, []).append(entry)
                continue
            for i, tuple_id in enumerate(entry.tuple_ids):
                index.setdefault(tuple_id, []).append((entry, i))
        self._indexed = len(self._entries)
        return index

    def record(
        self,
        tuple_id: str,
        attr: str,
        old: Any,
        new: Any,
        source: str,
        *,
        rule_id: str | None = None,
        master_positions: Iterable[int] = (),
        round_no: int = 0,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> ChangeEvent:
        """Append one event; the sequence number is assigned here.

        When tracing is enabled and no explicit ids are given, the
        event is stamped with the active span."""
        if trace_id is None:
            trace_id, span_id = tracing.current_ids()
        with self._lock:
            event = ChangeEvent(
                seq=self._len,
                tuple_id=tuple_id,
                attr=attr,
                old=old,
                new=new,
                source=source,
                rule_id=rule_id,
                master_positions=tuple(master_positions),
                round_no=round_no,
                trace_id=trace_id,
                span_id=span_id,
            )
            self._append(event)
        return event

    def record_group(
        self,
        tuple_ids: Sequence[str],
        events: Sequence[Mapping[str, Any]],
        olds: Mapping[tuple[int, int], Any] | None = None,
    ) -> None:
        """Append ``events`` once per tuple id, as one segment.

        ``events`` are serialized event dicts (``attr``, ``old``,
        ``new``, ``source``, ``rule_id``, ``master_positions``,
        ``round_no``, optionally ``trace_id``/``span_id``) shared by
        every member; ``olds`` overrides ``old`` for (member index,
        event index) pairs. The result is exactly what calling
        :meth:`record` member by member, event by event, would have
        stored — batch replay passes the ids recorded *in the worker*,
        so provenance points at the group-chase that produced the fix;
        an unstamped event takes the active span, as in :meth:`record`.
        """
        if not tuple_ids or not events:
            return
        for e in events:
            if e["source"] not in SOURCES:
                raise ValidationError(
                    f"unknown audit source {e['source']!r} (expected one of {SOURCES})"
                )
        trace_id, span_id = tracing.current_ids()
        if trace_id is not None:
            events = [
                e if e.get("trace_id") is not None
                else {**e, "trace_id": trace_id, "span_id": span_id}
                for e in events
            ]
        with self._lock:
            self._append(_Segment(self._len, tuple(tuple_ids), tuple(events), olds or None))

    def _snapshot(self) -> list[ChangeEvent | _Segment]:
        with self._lock:
            return list(self._entries)

    @property
    def events(self) -> tuple[ChangeEvent, ...]:
        return tuple(_expand(self._snapshot()))

    def filter(self, predicate: Callable[[ChangeEvent], bool]) -> list[ChangeEvent]:
        return [e for e in _expand(self._snapshot()) if predicate(e)]

    def by_tuple(self, tuple_id: str) -> list[ChangeEvent]:
        """All events for one tuple, in order — the demo's per-tuple trace.

        Served from a per-tuple index of events and segment members,
        caught up with new entries on each query, so the monitoring
        stream's per-row trace (and the DB cleaner's per-row provenance)
        stays O(events for that tuple) instead of O(all events)."""
        with self._lock:
            refs = list(self._index().get(tuple_id, ()))
        out: list[ChangeEvent] = []
        for ref in refs:
            if isinstance(ref, ChangeEvent):
                out.append(ref)
            else:
                out.extend(ref[0].member(ref[1]))
        return out

    def by_attr(self, attr: str) -> list[ChangeEvent]:
        """All events for one attribute (column) — the Fig. 4 column view."""
        return self.filter(lambda e: e.attr == attr)

    def stats(self) -> dict:
        """Registry-source summary (see :mod:`repro.obs.metrics`);
        materialises no events."""
        with self._lock:
            return {"events": self._len, "tuples": len(self._index())}

    def tuple_ids(self) -> list[str]:
        """Distinct tuple ids, in first-seen order."""
        seen: dict[str, None] = {}
        for entry in self._snapshot():
            if isinstance(entry, ChangeEvent):
                seen.setdefault(entry.tuple_id)
            else:
                for tuple_id in entry.tuple_ids:
                    seen.setdefault(tuple_id)
        return list(seen)

    # -- persistence -------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as f:
            for event in _expand(self._snapshot()):
                f.write(json.dumps(event.to_json(), default=str))
                f.write("\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "AuditLog":
        log = cls()
        path = Path(path)
        with path.open(encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    log._append(ChangeEvent.from_json(json.loads(line)))
        return log

    def __len__(self) -> int:
        with self._lock:
            return self._len

    def __iter__(self) -> Iterator[ChangeEvent]:
        return iter(self.events)
